package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"oakmap"
	"oakmap/internal/faultpoint"
)

// FpHandle is hit once per executed command, before dispatch. Chaos
// tests arm it with panicking or pausing hooks to prove the handler's
// isolation: a panic mid-command must cost exactly that connection,
// never the server or a map pin.
var FpHandle = faultpoint.New("server/handle")

// Config sizes a Server. The zero value serves on :6379 with the
// defaults noted per field.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":6379").
	Addr string
	// MaxConns bounds concurrently served connections (the handler
	// goroutine pool). Accepts beyond it are answered with an overload
	// error and closed. Default 1024.
	MaxConns int
	// MaxPipeline bounds replies buffered before a forced flush — the
	// max-inflight limit that keeps one greedy pipeliner from growing
	// the reply buffer without bound. Default 128.
	MaxPipeline int
	// ReadTimeout is the idle limit: a connection with no complete
	// command for this long is closed. 0 means no idle limit.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply flush; a slow client that cannot
	// drain its replies within it is closed. Default 10s.
	WriteTimeout time.Duration
	// SnapScanMax bounds concurrently open snapshot-pinned scans
	// (SCAN ... SNAP); each pins the map's reclaim horizon until it
	// exhausts or expires. Default 64.
	SnapScanMax int
	// SnapScanTTL reaps a snapshot-pinned scan that goes this long
	// without a batch (an abandoned client must not pin retained
	// versions forever). Default 60s.
	SnapScanTTL time.Duration
	// Telemetry, when non-nil, registers the oak_server_* gauge family
	// on the scope (normally the same scope the map exports through).
	Telemetry *oakmap.Telemetry
	// Logger receives connection-level diagnostics (panics, protocol
	// errors). Default: log to stderr with an "oak-server: " prefix.
	Logger *log.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = ":6379"
	}
	if out.MaxConns <= 0 {
		out.MaxConns = 1024
	}
	if out.MaxPipeline <= 0 {
		out.MaxPipeline = 128
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 10 * time.Second
	}
	if out.SnapScanMax <= 0 {
		out.SnapScanMax = 64
	}
	if out.SnapScanTTL <= 0 {
		out.SnapScanTTL = 60 * time.Second
	}
	if out.Logger == nil {
		out.Logger = log.New(os.Stderr, "oak-server: ", log.LstdFlags)
	}
	return out
}

// Server is a pipelined RESP2-subset front-end over one
// oakmap.Map[[]byte, []byte]. Create with New, run with Serve or
// ListenAndServe, stop with Shutdown. The server borrows the map: it
// never closes it, so an embedding process can keep using the map (or
// hand it to another server) after drain.
type Server struct {
	cfg   Config
	m     *oakmap.Map[[]byte, []byte]
	zc    oakmap.ZeroCopyMap[[]byte, []byte]
	start time.Time

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	sem      chan struct{} // MaxConns handler slots
	draining atomic.Bool
	wg       sync.WaitGroup

	shutdownOnce sync.Once
	shutdownCh   chan struct{} // closed when a SHUTDOWN command arrives

	snaps   snapCursors // snapshot-pinned SCAN registry
	metrics metrics
}

// New builds a Server over m. The map must have been created with
// byte-slice serializers whose serialized form is the identity (the
// server speaks raw keys and values).
func New(m *oakmap.Map[[]byte, []byte], cfg Config) *Server {
	s := &Server{
		cfg:        cfg.withDefaults(),
		m:          m,
		zc:         m.ZC(),
		start:      time.Now(),
		conns:      make(map[net.Conn]struct{}),
		shutdownCh: make(chan struct{}),
	}
	s.sem = make(chan struct{}, s.cfg.MaxConns)
	s.registerMetrics()
	return s
}

// ShutdownRequested is closed when a client issues SHUTDOWN; the
// embedding process should then call Shutdown (the command itself only
// requests the drain — the owner of the process decides the sequence).
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdownCh }

// ErrServerClosed is returned by Serve after Shutdown stops the
// listener, mirroring net/http.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on cfg.Addr and calls Serve.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listen address once Serve has been called
// (useful with ":0" test listeners).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown. Each accepted
// connection gets a handler goroutine from the bounded pool; accepts
// beyond MaxConns are answered with an overload error and closed
// immediately, so a connection storm degrades loudly instead of
// queueing silently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		select {
		case s.sem <- struct{}{}:
		default:
			// Pool exhausted: refuse loudly. The write gets a short
			// deadline — an overloaded server must not block on a slow
			// victim of its own overload.
			s.metrics.rejected.Add(1)
			c.SetWriteDeadline(time.Now().Add(time.Second))
			fmt.Fprintf(c, "-ERR max number of clients reached\r\n")
			c.Close()
			continue
		}
		// Registration and the drain decision share s.mu: Shutdown sets
		// draining before it takes the lock to count connections, so a
		// connection accepted as the drain began is either registered
		// (and waited for) before that count, or sees draining here and
		// is refused — never added to wg while Shutdown already waits.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			<-s.sem
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.metrics.connsTotal.Add(1)
		s.metrics.conns.Add(1)
		go s.handle(c)
	}
}

// errCloseConn is returned by command execution to request an orderly
// connection close after the current reply (QUIT, SHUTDOWN).
var errCloseConn = errors.New("server: close connection")

// handle runs one connection's command loop. It is panic-isolated: a
// panic anywhere in parsing or execution closes this connection (after
// a best-effort error reply) and is counted, but the server and the
// map outlive it. No map pin is ever held across loop iterations —
// every command's reads pin and unpin within the command — so a killed
// or panicked connection cannot stall epoch reclamation.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			s.metrics.panics.Add(1)
			s.cfg.Logger.Printf("panic on %s (connection closed, server continues): %v", c.RemoteAddr(), p)
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.metrics.conns.Add(-1)
		<-s.sem
	}()

	r := newRespReader(c, 0, 0)
	w := newRespWriter(c)
	depth := 0 // replies buffered since the last flush

	flush := func() bool {
		if depth == 0 {
			return true
		}
		s.metrics.observeDepth(depth)
		depth = 0
		c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := w.Flush(); err != nil {
			s.metrics.timeouts.Add(1)
			return false
		}
		return true
	}

	for {
		if !r.buffered() {
			// End of a pipeline: everything parsed so far is answered in
			// one write, then the reader may block for the next batch.
			if !flush() {
				return
			}
			if s.draining.Load() {
				return // in-flight work done; drain takes the connection
			}
			if s.cfg.ReadTimeout > 0 {
				c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
			} else {
				// Parked forever is fine — Shutdown pokes blocked readers
				// by moving the deadline to now.
				c.SetReadDeadline(time.Time{})
			}
		}
		args, err := r.ReadCommand()
		if err != nil {
			switch {
			case IsProtocolError(err):
				s.metrics.protoErrors.Add(1)
				w.writeError(err.Error())
				depth++ // the error reply itself, so flush has work to do
				flush()
			case isTimeout(err):
				if !s.draining.Load() {
					s.metrics.timeouts.Add(1)
				}
				// Either the drain poke or a genuinely idle client;
				// both end the connection.
			}
			return
		}
		if len(args) == 0 {
			continue // empty inline line
		}
		depth++
		if err := s.execute(w, args); err != nil {
			flush()
			return
		}
		if depth >= s.cfg.MaxPipeline {
			if !flush() {
				return
			}
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// DrainStats reports what Shutdown observed. The leak-gate fields are
// the server's parting invariant check: after a full drain, with the
// server's own snapshots closed and reclamation quiesced, every shard's
// limbo must be empty and the map may hold no open snapshot and no
// retained pre-image.
type DrainStats struct {
	// ConnsDrained is how many connections finished their in-flight
	// pipelines during the drain; ConnsForced were still open when the
	// context expired and were closed hard.
	ConnsDrained int
	ConnsForced  int
	// Quiesced reports whether every shard's reclamation limbo drained.
	Quiesced bool
	// RetainedBytes, RetainedSpans and OpenSnapshots are the map's MVCC
	// state after the quiesce: pre-images kept for snapshots and the
	// snapshots still open (an embedder's, since the server closed its
	// own). All zero on a clean drain.
	RetainedBytes int64
	RetainedSpans int64
	OpenSnapshots int64
	// Commands is the total commands served over the server's lifetime.
	Commands int64
}

// Clean reports whether the drain left nothing behind: limbo drained,
// no snapshot open and nothing retained.
func (d DrainStats) Clean() bool {
	return d.Quiesced && d.RetainedBytes == 0 && d.RetainedSpans == 0 && d.OpenSnapshots == 0
}

// Shutdown drains the server: stop accepting, interrupt parked readers,
// let every handler finish the pipeline it already read, then quiesce
// the map's reclamation and snapshot the leak gate. Connections still
// running when ctx expires are closed forcibly (their handlers still
// recover and release cleanly). Safe to call once; Serve returns
// ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) DrainStats {
	s.draining.Store(true)
	s.mu.Lock()
	active := len(s.conns)
	if s.ln != nil {
		s.ln.Close()
	}
	// Poke every parked reader: moving the read deadline into the past
	// wakes blocked Reads with a timeout, which the handler loop treats
	// as "drain reached me". Handlers mid-pipeline are untouched — they
	// notice draining at their next flush boundary.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()

	var stats DrainStats
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: close the stragglers hard and wait them out
		// (the handlers' deferred cleanup is unconditional).
		s.mu.Lock()
		stats.ConnsForced = len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	stats.ConnsDrained = active - stats.ConnsForced

	// Release every snapshot-pinned scan before quiescing: an open
	// snapshot pins retained versions and the reclaim horizon, which
	// would make the quiesce (and the leak gate) report a dirty drain.
	s.snaps.closeAll()

	stats.Quiesced = s.m.Quiesce()
	ms := s.m.Stats()
	stats.RetainedBytes, stats.RetainedSpans, stats.OpenSnapshots = ms.RetainedBytes, ms.RetainedSpans, ms.OpenSnapshots
	for c := cmdKind(0); c < numCmds; c++ {
		stats.Commands += s.metrics.cmds[c].Load()
	}
	return stats
}
