// Command oak-server serves an Oak map over TCP with a RESP2-subset
// protocol, so any Redis client (redis-cli, client libraries, or
// oak-stress -net) can drive the off-heap map across a socket.
//
//	oak-server -addr :6379 -shards 8 -metrics :9464
//	redis-cli -p 6379 SET hello world
//	oak-stress -net 127.0.0.1:6379 -workers 16 -zipf 1.2
//
// Supported commands: GET, SET, SETNX, DEL, EXISTS, MGET, MSET,
// SCAN cursor [COUNT n] [END hi] (ordered, cross-shard merged), DBSIZE,
// PING, INFO, SHUTDOWN, QUIT. Pipelining is first-class: replies are
// batched per pipeline and flushed in one write.
//
// On SIGTERM/SIGINT (or a SHUTDOWN command) the server drains
// gracefully: it stops accepting, finishes every in-flight pipeline,
// quiesces epoch reclamation, and prints the leak gate: whether every
// shard's limbo drained, and the open snapshots and retained pre-images
// left behind. The process exits non-zero if the gate fails, so
// deployment scripts and CI smokes can assert a leak-free lifecycle with
// the exit code alone.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oakmap"
	"oakmap/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oak-server: ")
	var (
		addr         = flag.String("addr", ":6379", "listen address")
		shards       = flag.Int("shards", 0, "hash-shard the map across N core maps (0 or 1 = plain)")
		chunkCap     = flag.Int("chunk", 0, "chunk capacity (0 = default 4096)")
		blockSize    = flag.Int("blocksize", 16<<20, "private block-pool block size in bytes (0 = shared 100MB pool)")
		maxConns     = flag.Int("maxconns", 1024, "max concurrently served connections")
		maxPipeline  = flag.Int("pipeline", 128, "max replies buffered before a forced flush")
		readTimeout  = flag.Duration("read-timeout", 0, "idle connection limit (0 = none)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-flush slow-client limit")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace for in-flight pipelines at shutdown")
		metrics      = flag.String("metrics", "", "serve Prometheus /metrics and expvar /debug/vars on this address")
	)
	flag.Parse()

	var tel *oakmap.Telemetry
	if *metrics != "" {
		tel = oakmap.NewTelemetry(nil)
	}
	m := oakmap.New[[]byte, []byte](oakmap.BytesSerializer{}, oakmap.BytesSerializer{},
		&oakmap.Options{
			ChunkCapacity: *chunkCap,
			BlockSize:     *blockSize,
			Shards:        *shards,
			Telemetry:     tel,
		})
	defer m.Close()

	srv := server.New(m, server.Config{
		Addr:         *addr,
		MaxConns:     *maxConns,
		MaxPipeline:  *maxPipeline,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		Telemetry:    tel,
	})

	if *metrics != "" {
		tel.PublishExpvar("oak")
		mux := http.NewServeMux()
		mux.Handle("/metrics", tel.MetricsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		hsrv := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("metrics server: %v", err)
			}
		}()
		defer hsrv.Close()
		log.Printf("serving /metrics and /debug/vars on %s", *metrics)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("serving RESP on %s (shards=%d maxconns=%d pipeline=%d)",
		*addr, m.NumShards(), *maxConns, *maxPipeline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("received %s, draining", s)
	case <-srv.ShutdownRequested():
		log.Printf("SHUTDOWN command received, draining")
	case err := <-serveErr:
		if err != nil && !errors.Is(err, server.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	ds := srv.Shutdown(ctx)

	log.Printf("drained: %d connections finished in-flight work, %d forced, %d commands served",
		ds.ConnsDrained, ds.ConnsForced, ds.Commands)
	log.Printf("leak gate: quiesced=%v open-snapshots=%d retained=%dB/%d-spans",
		ds.Quiesced, ds.OpenSnapshots, ds.RetainedBytes, ds.RetainedSpans)
	if !ds.Clean() {
		fmt.Fprintln(os.Stderr, "oak-server: LEAK GATE FAILED")
		os.Exit(1)
	}
	log.Printf("leak gate clean: limbo drained, no open snapshot, nothing retained")
}
