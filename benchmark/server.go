package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"oakmap"
	"oakmap/internal/server"
)

const (
	pipelineDepth = 16
	mgetKeys      = 8
	scanCount     = 256
)

// respConn is one client connection: a socket, the reply parser and the
// request buffer.
type respConn struct {
	conn net.Conn
	rd   *replyReader
	out  []byte
}

func dialResp(addr string) (*respConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial oak-server: %w", err)
	}
	return &respConn{conn: c, rd: newReplyReader(c), out: make([]byte, 0, 16<<10)}, nil
}

// flush writes the buffered requests.
func (c *respConn) flush() error {
	_, err := c.conn.Write(c.out)
	c.out = c.out[:0]
	return err
}

// startServer serves m on a loopback port of the kernel's choosing.
func startServer(m *byteMap, tel *oakmap.Telemetry) (srv *server.Server, addr string, done <-chan error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("listen: %w", err)
	}
	srv = server.New(m, server.Config{Telemetry: tel})
	served := make(chan error, 1) // Serve's single result
	go func() { served <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), served, nil
}

// stopServer drains srv and checks its parting leak gate.
func stopServer(srv *server.Server, done <-chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ds := srv.Shutdown(ctx)
	if err := <-done; err != nil && !errors.Is(err, server.ErrServerClosed) {
		return fmt.Errorf("server: Serve: %w", err)
	}
	if !ds.Clean() || ds.ConnsForced != 0 {
		return fmt.Errorf("server: drain not clean: %+v", ds)
	}
	return nil
}

// serverSession drives the map through internal/server with two
// connections that have separate roles, so each number has one owner.
type serverSession struct {
	spec  *spec
	m     *byteMap
	tel   *oakmap.Telemetry
	srv   *server.Server
	done  <-chan error
	point *pointConn
	pager *pagerConn
}

func newServerSession(s *spec, seed uint64, tel *oakmap.Telemetry) (*serverSession, error) {
	z := newZipf(s.keys, s.theta)
	m, err := buildMap(s, seed, tel)
	if err != nil {
		return nil, err
	}
	srv, addr, done, err := startServer(m, tel)
	if err != nil {
		m.Close()
		return nil, err
	}
	ss := &serverSession{spec: s, m: m, tel: tel, srv: srv, done: done}
	pc, err := dialResp(addr)
	if err == nil {
		ss.point = newPointConn(pc, newOpGen(s, z, seed, 0))
		pc, err = dialResp(addr)
	}
	if err != nil {
		ss.close()
		return nil, err
	}
	ss.pager = newPagerConn(pc, s.keys)
	return ss, nil
}

// stop hangs up both connections and drains the server, once.
func (ss *serverSession) stop() error {
	if ss.srv == nil {
		return nil
	}
	if ss.point != nil {
		ss.point.c.conn.Close()
	}
	if ss.pager != nil {
		ss.pager.c.conn.Close()
	}
	err := stopServer(ss.srv, ss.done)
	ss.srv = nil
	return err
}

func (ss *serverSession) close() {
	_ = ss.stop() // finish reports a failed drain; a discarded set-up has nothing to report it to
	if ss.m != nil {
		ss.m.Close()
		ss.m = nil
	}
}

func (ss *serverSession) measure(warm time.Duration, n int, win time.Duration) []window {
	return runWindows(warm, n, win, ss.point, ss.pager)
}

func (ss *serverSession) finish() (endState, error) {
	ss.point.rec, ss.pager.rec = recorder{}, recorder{}
	if err := errors.Join(ss.point.err, ss.pager.err, ss.stop()); err != nil {
		return endState{}, err
	}
	return endGates(ss.spec, ss.m, ss.tel)
}

// pointConn sends 16-deep pipelines of GET / SET / MGETx8 on zipfian
// keys. It owns throughput_ops_s and the pipeline round-trip time.
type pointConn struct {
	c    *respConn
	gen  *opGen
	rec  recorder
	err  error // a broken connection ends the loop and invalidates the run
	seq  uint64
	val  []byte
	want [pipelineDepth * mgetKeys]uint64 // key index each expected bulk reply carries
	kind [pipelineDepth]opKind

	get, set, mget frame
}

func newPointConn(c *respConn, gen *opGen) *pointConn {
	key := newKey()
	p := &pointConn{c: c, gen: gen, val: make([]byte, 0, gen.spec.valMax)}
	p.get = newFrame([]byte("GET"), key)
	p.set = newFrame([]byte("SET"), key, make([]byte, gen.spec.valMax))
	margs := [][]byte{[]byte("MGET")}
	for i := 0; i < mgetKeys; i++ {
		margs = append(margs, key)
	}
	p.mget = newFrame(margs...)
	return p
}

func (p *pointConn) record() *recorder { return &p.rec }

// loop stops early on a broken connection; the error invalidates the run.
func (p *pointConn) loop(ctl *control) {
	for p.err == nil && !p.rec.sync(ctl) {
		p.build()
		t0 := time.Now()
		failed, err := p.roundTrip()
		d := time.Since(t0)
		if err != nil {
			p.err = fmt.Errorf("point connection: %w", err)
			failed = pipelineDepth
		}
		if p.rec.cur >= 0 {
			p.rec.write.add(int64(d))
			c := &p.rec.counts[p.rec.cur]
			c.ops += pipelineDepth
			c.attempted += pipelineDepth
			c.failed += uint64(failed)
		}
	}
	p.rec.enter(phaseStop) // mark the remaining windows if the loop ended early
}

// build encodes the next pipeline from the templates.
func (p *pointConn) build() {
	c := p.c
	nw := 0
	for i := 0; i < pipelineDepth; i++ {
		o := p.gen.next()
		p.seq++
		p.kind[i] = o.kind
		var at int
		switch o.kind {
		case opGet:
			c.out, at = p.get.appendTo(c.out)
			setKey(c.out[at+p.get.args[1]:], o.idx)
			p.want[nw] = o.idx
			nw++
		case opPut:
			c.out, at = p.set.appendTo(c.out)
			setKey(c.out[at+p.set.args[1]:], o.idx)
			v := c.out[at+p.set.args[2]:]
			fillValue(v[:o.vlen], o.idx, p.seq)
		case opMGet:
			c.out, at = p.mget.appendTo(c.out)
			idx := o.idx
			for k := 0; k < mgetKeys; k++ {
				if k > 0 {
					idx = p.gen.nextIndex()
				}
				setKey(c.out[at+p.mget.args[1+k]:], idx)
				p.want[nw] = idx
				nw++
			}
		}
	}
}

// roundTrip flushes the pipeline and reads its 16 replies, checking type
// and content of each. A wrong value is a failed command; a reply of the
// wrong type or shape is a protocol error that ends the connection.
func (p *pointConn) roundTrip() (failed int, err error) {
	if err := p.c.flush(); err != nil {
		return 0, err
	}
	s := p.gen.spec
	rd := p.c.rd
	nw := 0
	for i := 0; i < pipelineDepth; i++ {
		ok := true
		switch p.kind[i] {
		case opGet:
			v, err := rd.bulk(p.val)
			if err != nil {
				return failed, err
			}
			ok = checkValue(v, p.want[nw], s.valMin, s.valMax)
			nw++
		case opPut:
			if err := rd.simple("OK"); err != nil {
				return failed, err
			}
		case opMGet:
			n, err := rd.array()
			if err != nil {
				return failed, err
			}
			if n != mgetKeys {
				return failed, fmt.Errorf("%w: MGET returned %d elements", errProtocol, n)
			}
			for k := 0; k < mgetKeys; k++ {
				v, err := rd.bulk(p.val)
				if err != nil {
					return failed, err
				}
				ok = ok && checkStamp(v, p.want[nw], s.valMin, s.valMax)
				nw++
			}
		}
		if !ok {
			failed++
		}
	}
	return failed, nil
}

// pagerConn walks the whole key space with SCAN cursor COUNT 256, one
// request at a time, restarting at the end. It owns the page latency and
// the scan entry rate. SETs never add or remove keys, so every page must
// carry exactly the next keys in order.
type pagerConn struct {
	c      *respConn
	rec    recorder
	err    error
	keys   uint64
	next   uint64 // index the next page must start at
	cursor []byte
	key    []byte
	count  []byte
}

func newPagerConn(c *respConn, keys uint64) *pagerConn {
	return &pagerConn{c: c, keys: keys,
		cursor: append(make([]byte, 0, keyLen+1), '0'),
		key:    make([]byte, 0, keyLen),
		count:  []byte(strconv.Itoa(scanCount))}
}

func (g *pagerConn) record() *recorder { return &g.rec }

func (g *pagerConn) loop(ctl *control) {
	for g.err == nil && !g.rec.sync(ctl) {
		g.c.out = appendCommand(g.c.out, []byte("SCAN"), g.cursor, []byte("COUNT"), g.count)
		t0 := time.Now()
		n, ok, err := g.page()
		d := time.Since(t0)
		if err != nil {
			g.err = fmt.Errorf("pager connection: %w", err)
			ok = false
		}
		if g.rec.cur >= 0 {
			g.rec.read.add(int64(d))
			c := &g.rec.counts[g.rec.cur]
			c.entries += uint64(n)
			c.attempted++
			if !ok {
				c.failed++
			}
		}
	}
	g.rec.enter(phaseStop)
}

// page sends the buffered SCAN and checks its reply: [cursor, [key...]]
// with at most COUNT well-formed keys, each exactly the next index.
func (g *pagerConn) page() (n int, ok bool, err error) {
	if err := g.c.flush(); err != nil {
		return 0, false, err
	}
	rd := g.c.rd
	if l, err := rd.array(); err != nil {
		return 0, false, err
	} else if l != 2 {
		return 0, false, fmt.Errorf("%w: SCAN reply has %d elements", errProtocol, l)
	}
	if g.cursor, err = rd.bulk(g.cursor); err != nil {
		return 0, false, err
	}
	if n, err = rd.array(); err != nil {
		return 0, false, err
	}
	if n > scanCount {
		return n, false, fmt.Errorf("%w: SCAN page of %d keys", errProtocol, n)
	}
	ok = true
	for i := 0; i < n; i++ {
		if g.key, err = rd.bulk(g.key); err != nil {
			return n, false, err
		}
		ok = ok && validKey(g.key) && keyIndex(g.key) == g.next
		g.next++
	}
	if len(g.cursor) == 1 && g.cursor[0] == '0' { // end of the key space
		ok = ok && g.next == g.keys
		g.next = 0
	}
	return n, ok, nil
}
