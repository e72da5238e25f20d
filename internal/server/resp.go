// Package server is oak-server's engine: a pipelined RESP2-subset TCP
// front-end over an oakmap.Map[[]byte, []byte]. The protocol layer in
// this file frames commands and replies; server.go owns connections,
// limits and the drain sequence; commands.go executes the verb set.
//
// The wire format is the Redis serialization protocol, version 2,
// restricted to what a key-value map needs: clients send commands as
// arrays of bulk strings (or inline, space-separated lines — the
// redis-cli convenience form), the server answers with simple strings,
// errors, integers, bulk strings and arrays. Everything is
// length-prefixed, so a reader never scans payload bytes for
// terminators and pipelining falls out naturally: the reader consumes
// frames back to back and the writer batches replies until the input
// buffer runs dry.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Protocol limits. Violations are protocol errors: the server reports
// them with a -ERR reply and closes the connection, like Redis, because
// after a malformed frame the stream offset can no longer be trusted.
const (
	// DefaultMaxArgs bounds the argument count of one command frame.
	DefaultMaxArgs = 1024
	// DefaultMaxBulk bounds one bulk-string payload (keys and values).
	DefaultMaxBulk = 8 << 20
	// maxInlineLine bounds an inline command line.
	maxInlineLine = 64 << 10
	// bufSize is each connection's bufio buffer size, and the most any
	// reused per-connection buffer keeps between commands: one that an
	// outsized frame or reply grew past it is dropped, so a single 8 MiB
	// GET does not pin 8 MiB for the rest of the connection.
	bufSize = 64 << 10
)

// errProtocol marks malformed frames. A handler that sees one reports
// it to the client and closes the connection — resynchronizing on a
// corrupt length-prefixed stream is not possible.
type errProtocol struct{ msg string }

func (e *errProtocol) Error() string { return "Protocol error: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &errProtocol{msg: fmt.Sprintf(format, args...)}
}

// IsProtocolError reports whether err is a framing violation (as
// opposed to an I/O error or timeout).
func IsProtocolError(err error) bool {
	var pe *errProtocol
	return errors.As(err, &pe)
}

// respReader frames pipelined commands off one connection. The [][]byte
// it returns is owned by the reader: both the outer slice and each
// argument's backing array are reused by the next ReadCommand, so
// handlers must finish (or copy) before reading the next frame —
// exactly the lifetime a synchronous command loop provides.
type respReader struct {
	br      *bufio.Reader
	maxArgs int
	maxBulk int

	args   [][]byte // reused frame: args[i] aliases argBuf regions
	argBuf []byte   // one backing buffer for all of a frame's arguments
	offs   []int    // reused start/end offsets into argBuf (it may move while growing)
}

func newRespReader(r io.Reader, maxArgs, maxBulk int) *respReader {
	if maxArgs <= 0 {
		maxArgs = DefaultMaxArgs
	}
	if maxBulk <= 0 {
		maxBulk = DefaultMaxBulk
	}
	return &respReader{
		br:      bufio.NewReaderSize(r, bufSize),
		maxArgs: maxArgs,
		maxBulk: maxBulk,
	}
}

// buffered reports whether at least one byte of a further frame is
// already in memory — the pipelining signal: while true, replies stay
// buffered; when false, the writer flushes before the reader blocks.
func (r *respReader) buffered() bool { return r.br.Buffered() > 0 }

// readLine reads one CRLF-terminated line (without the terminator),
// bounded by maxInlineLine. Bare LF is tolerated for inline commands
// typed through netcat; RESP frames always carry the full CRLF.
func (r *respReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, protoErrf("line too long")
		}
		return nil, err
	}
	if len(line) > maxInlineLine {
		return nil, protoErrf("line too long")
	}
	// Strip \n and an optional preceding \r.
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// ReadCommand reads one command frame: a RESP array of bulk strings, or
// an inline command line. The returned arguments are valid until the
// next ReadCommand call.
func (r *respReader) ReadCommand() ([][]byte, error) {
	if cap(r.argBuf) > bufSize {
		r.argBuf = nil // the last frame was outsized: do not keep its buffer
	}
	first, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if first != '*' {
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		return r.readInline()
	}
	header, err := r.readLine()
	if err != nil {
		return nil, err
	}
	n, err := parseLen(header)
	if err != nil {
		return nil, protoErrf("invalid multibulk length")
	}
	if n < 0 {
		return nil, protoErrf("invalid multibulk length")
	}
	if n == 0 {
		return r.args[:0], nil // empty frame: caller skips it
	}
	if n > r.maxArgs {
		return nil, protoErrf("too many arguments (%d > %d)", n, r.maxArgs)
	}
	if cap(r.args) < n {
		r.args = make([][]byte, n)
	}
	args := r.args[:n]
	r.argBuf = r.argBuf[:0]
	offs := r.offs[:0]
	for i := 0; i < n; i++ {
		marker, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if marker != '$' {
			return nil, protoErrf("expected '$', got %q", marker)
		}
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		blen, err := parseLen(line)
		if err != nil || blen < 0 {
			return nil, protoErrf("invalid bulk length")
		}
		if blen > r.maxBulk {
			return nil, protoErrf("bulk string too large (%d > %d)", blen, r.maxBulk)
		}
		start := len(r.argBuf)
		if cap(r.argBuf)-start < blen {
			grown := make([]byte, start, start+blen+256)
			copy(grown, r.argBuf)
			r.argBuf = grown
		}
		r.argBuf = r.argBuf[:start+blen]
		if _, err := io.ReadFull(r.br, r.argBuf[start:]); err != nil {
			return nil, err
		}
		if err := r.expectCRLF(); err != nil {
			return nil, err
		}
		offs = append(offs, start, start+blen)
	}
	r.offs = offs
	for i := 0; i < n; i++ {
		args[i] = r.argBuf[offs[2*i]:offs[2*i+1]]
	}
	return args, nil
}

// readInline parses a space-separated command line (no quoting — enough
// for PING/INFO/SHUTDOWN typed by hand; binary-safe traffic uses
// arrays). An empty line yields an empty frame the caller skips.
func (r *respReader) readInline() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	args := r.args[:0]
	r.argBuf = append(r.argBuf[:0], line...) // own the bytes: the bufio slice dies on the next read
	buf := r.argBuf
	for i := 0; i < len(buf); {
		for i < len(buf) && (buf[i] == ' ' || buf[i] == '\t') {
			i++
		}
		start := i
		for i < len(buf) && buf[i] != ' ' && buf[i] != '\t' {
			i++
		}
		if i > start {
			if len(args) == r.maxArgs {
				return nil, protoErrf("too many arguments (> %d)", r.maxArgs)
			}
			args = append(args, buf[start:i])
		}
	}
	r.args = args[:cap(args)]
	return args, nil
}

func (r *respReader) expectCRLF() error {
	cr, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	lf, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	if cr != '\r' || lf != '\n' {
		return protoErrf("expected CRLF after bulk payload")
	}
	return nil
}

// parseLen parses a RESP length field: plain decimal digits with an
// optional leading '-' (for the -1 nil sentinel). strconv.Atoi would
// accept "+5" and "05"; Redis does not, and neither do we.
func parseLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("empty length")
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i++
		if i == len(b) {
			return 0, errors.New("bare minus")
		}
	}
	if b[i] == '0' && len(b)-i > 1 {
		return 0, errors.New("leading zero")
	}
	n := 0
	for ; i < len(b); i++ {
		d := b[i]
		if d < '0' || d > '9' {
			return 0, errors.New("not a digit")
		}
		if n > (1<<31-1)/10 {
			return 0, errors.New("length overflow")
		}
		n = n*10 + int(d-'0')
	}
	if neg {
		return -n, nil
	}
	return n, nil
}

// respWriter buffers replies for one connection. Nothing reaches the
// socket until Flush — the handler flushes when the read side runs out
// of buffered frames (end of pipeline) or when MaxPipeline replies have
// accumulated, so a deep pipeline costs one syscall per batch, not per
// command.
type respWriter struct {
	bw      *bufio.Writer
	scratch []byte   // reused copy-out target for values larger than bw's free space
	page    []byte   // reused SCAN page: its rows, already RESP-framed
	ints    [24]byte // integer formatting; separate from scratch so a
	// buffered value copy is never clobbered by its own length header
}

func newRespWriter(w io.Writer) *respWriter {
	return &respWriter{bw: bufio.NewWriterSize(w, bufSize)}
}

func (w *respWriter) Flush() error { return w.bw.Flush() }

// trim drops a reused buffer that one command grew past bufSize; the
// next outsized reply allocates afresh.
func (w *respWriter) trim() {
	if cap(w.scratch) > bufSize {
		w.scratch = nil
	}
	if cap(w.page) > bufSize {
		w.page = nil
	}
}

func (w *respWriter) writeSimple(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

func (w *respWriter) writeError(msg string) {
	w.bw.WriteString("-ERR ")
	w.bw.WriteString(msg)
	w.bw.WriteString("\r\n")
}

func (w *respWriter) writeInt(n int64) {
	w.bw.WriteByte(':')
	w.bw.Write(strconv.AppendInt(w.ints[:0], n, 10))
	w.bw.WriteString("\r\n")
}

func (w *respWriter) writeNil() { w.bw.WriteString("$-1\r\n") }

func (w *respWriter) writeBulk(b []byte) {
	w.writeBulkHeader(len(b))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// bulkOverhead bounds a bulk string's framing: '$', up to 20 length
// digits and two CRLFs.
const bulkOverhead = 1 + 20 + 2 + 2

// appendBulk appends b to dst as a RESP bulk string.
func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, "\r\n"...)
	dst = append(dst, b...)
	return append(dst, "\r\n"...)
}

func (w *respWriter) writeBulkString(s string) {
	w.writeBulkHeader(len(s))
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

func (w *respWriter) writeBulkHeader(n int) {
	w.bw.WriteByte('$')
	w.bw.Write(strconv.AppendInt(w.ints[:0], int64(n), 10))
	w.bw.WriteString("\r\n")
}

func (w *respWriter) writeArrayHeader(n int) {
	w.bw.WriteByte('*')
	w.bw.Write(strconv.AppendInt(w.ints[:0], int64(n), 10))
	w.bw.WriteString("\r\n")
}
