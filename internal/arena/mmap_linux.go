//go:build linux && !race

package arena

import (
	"runtime"
	"syscall"
	"unsafe"
)

// hugePageSize is the x86-64 and arm64 (4 KiB granule) transparent huge
// page size. A mapping is aligned to it and advised MADV_HUGEPAGE, so
// the kernel can back each 2 MiB of blocks with one TLB entry instead of
// 512; Go heap memory is never advised, so heap blocks sit on 4 KiB
// pages. With THP disabled the advice is a no-op.
const hugePageSize = 2 << 20

// mapBlocks maps an anonymous private region of roundUp(blockSize,
// hugePageSize) bytes, aligned to hugePageSize, and returns its record
// and the aligned bytes. It maps hugePageSize-pageSize bytes of slack
// to find the alignment; the slack is never touched, so it costs
// address space only. m is nil when mmap fails. err reports a failed
// mmap or a failed madvise; in the latter case m is still usable.
func mapBlocks(blockSize int) (m *mapping, buf []byte, err error) {
	n := (blockSize + hugePageSize - 1) &^ (hugePageSize - 1)
	slack := hugePageSize - syscall.Getpagesize()
	raw, err := syscall.Mmap(-1, 0, n+slack, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	skip := int(-uintptr(unsafe.Pointer(unsafe.SliceData(raw))) & (hugePageSize - 1))
	buf = raw[skip : skip+n : skip+n]
	err = syscall.Madvise(buf, syscall.MADV_HUGEPAGE)
	m = &mapping{raw: raw}
	mappedBytes.Add(int64(len(raw)))
	runtime.SetFinalizer(m, (*mapping).unmap)
	return m, buf, err
}

// unmap returns the mapping to the kernel. It runs only as m's
// finalizer, when no block carved from m is reachable, so no view can
// still read it.
func (m *mapping) unmap() {
	if syscall.Munmap(m.raw) == nil {
		mappedBytes.Add(-int64(len(m.raw)))
	}
}
