package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The benchmark's own RESP2 client: request frames are encoded from
// templates built once at set-up (the hot path copies a template and
// patches the key index and value stamp), and replies are parsed by a
// minimal reader that checks the type of every reply. It shares no code
// with internal/server, so client CPU cannot change when product code
// does.

// appendCommand encodes args as a RESP array of bulk strings.
func appendCommand(dst []byte, args ...[]byte) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// frame is a pre-encoded command with the offsets of the arguments the
// hot path rewrites.
type frame struct {
	b    []byte
	args []int // offset of each argument's payload in b
}

// newFrame encodes args and records where each payload starts.
func newFrame(args ...[]byte) frame {
	f := frame{b: appendCommand(nil, args...)}
	off := len("*") + len(strconv.Itoa(len(args))) + 2
	for _, a := range args {
		off += len("$") + len(strconv.Itoa(len(a))) + 2
		f.args = append(f.args, off)
		off += len(a) + 2
	}
	return f
}

// appendTo copies the frame to dst and returns dst and the position the
// copy starts at, so the caller can patch arguments in place.
func (f *frame) appendTo(dst []byte) ([]byte, int) {
	at := len(dst)
	return append(dst, f.b...), at
}

var errProtocol = errors.New("resp: malformed reply")

// replyReader parses RESP2 replies. Every method names the reply type it
// expects and fails on any other, including error replies.
type replyReader struct {
	br *bufio.Reader
}

func newReplyReader(r io.Reader) *replyReader {
	return &replyReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// line reads one CRLF-terminated header line; the slice is valid until
// the next read.
func (r *replyReader) line() ([]byte, error) {
	l, err := r.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(l) < 3 || l[len(l)-2] != '\r' {
		return nil, errProtocol
	}
	return l[:len(l)-2], nil
}

// header reads a line of the given type and returns its integer payload.
func (r *replyReader) header(typ byte) (int, error) {
	l, err := r.line()
	if err != nil {
		return 0, err
	}
	if l[0] != typ {
		return 0, fmt.Errorf("%w: got %q, want type %q", errProtocol, l, typ)
	}
	n, neg := 0, false
	d := l[1:]
	if len(d) > 0 && d[0] == '-' {
		neg, d = true, d[1:]
	}
	if len(d) == 0 {
		return 0, errProtocol
	}
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, errProtocol
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// simple expects the simple string want (as in +OK, +PONG).
func (r *replyReader) simple(want string) error {
	l, err := r.line()
	if err != nil {
		return err
	}
	if l[0] != '+' || string(l[1:]) != want {
		return fmt.Errorf("%w: got %q, want +%s", errProtocol, l, want)
	}
	return nil
}

// bulk expects a non-nil bulk string and returns its payload appended to
// dst[:0]; the payload must fit dst's capacity.
func (r *replyReader) bulk(dst []byte) ([]byte, error) {
	n, err := r.header('$')
	if err != nil {
		return nil, err
	}
	if n < 0 || n > cap(dst) {
		return nil, fmt.Errorf("%w: bulk of %d bytes", errProtocol, n)
	}
	dst = dst[:n]
	if _, err := io.ReadFull(r.br, dst); err != nil {
		return nil, err
	}
	var crlf [2]byte
	if _, err := io.ReadFull(r.br, crlf[:]); err != nil {
		return nil, err
	}
	if crlf != [2]byte{'\r', '\n'} {
		return nil, errProtocol
	}
	return dst, nil
}

// array expects an array header and returns its length.
func (r *replyReader) array() (int, error) {
	n, err := r.header('*')
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: nil array", errProtocol)
	}
	return n, nil
}
