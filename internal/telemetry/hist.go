package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Latency histograms are log-bucketed: buckets grow geometrically from
// 100ns to ~100s (2 buckets per octave), giving ≤~41% relative error at
// the tails, plenty for GC-pause-sized effects — the paper's §1
// motivation ("unpredictable performance") quantified as tail
// percentiles. AtomicHist records; HistSnapshot merges and reads
// quantiles, for the recorder and the bench harness alike.
const (
	histBase    = 100 * time.Nanosecond
	histBuckets = 64
)

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	b := int(math.Log2(float64(d)/float64(histBase)) * 2)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper returns the representative upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(float64(histBase) * math.Pow(2, float64(i+1)/2))
}

// BucketUpper exposes the bucket boundary to exporters so Prometheus
// `le` labels match the internal layout exactly.
func BucketUpper(i int) time.Duration { return bucketUpper(i) }

// NumBuckets is the fixed bucket count of AtomicHist.
const NumBuckets = histBuckets

// AtomicHist is the latency histogram: every word atomic, so concurrent
// Observe calls from map operations never serialize on a mutex.
// Recording is either sampled (hot ops, 1 in 2^sampleShift) or
// inherently rare (rebalance, epoch advance), so unsharded atomics are
// contention-free in practice.
type AtomicHist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
}

// Observe adds one observation.
func (h *AtomicHist) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of an AtomicHist. The per-bucket
// loads are independent, so a snapshot taken mid-Observe may be off by
// the in-flight observation — fine for monitoring (Prometheus scrapes
// tolerate this by design).
type HistSnapshot struct {
	Buckets  [histBuckets]uint64
	Count    uint64
	SumNanos int64
	MaxNanos int64
}

// Snapshot copies the histogram's current state.
func (h *AtomicHist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNanos = h.sumNs.Load()
	s.MaxNanos = h.maxNs.Load()
	return s
}

// Quantile returns an upper-bound estimate of the q-quantile over the
// snapshot (q in [0,1]).
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(s.MaxNanos)
	}
	if q < 0 {
		q = 0
	}
	target := uint64(q * float64(s.Count))
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum > target {
			u := bucketUpper(i)
			if m := time.Duration(s.MaxNanos); u > m && m > 0 {
				u = m
			}
			return u
		}
	}
	return time.Duration(s.MaxNanos)
}

// Merge folds other into s.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	for i, c := range other.Buckets {
		s.Buckets[i] += c
	}
	s.Count += other.Count
	s.SumNanos += other.SumNanos
	if other.MaxNanos > s.MaxNanos {
		s.MaxNanos = other.MaxNanos
	}
}
