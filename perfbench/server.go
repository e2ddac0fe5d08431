package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/graph"
	"ctpquery/internal/serve"
)

// spanHeader carries a traced request's ID from the client to the
// handler wrapper, so both ends of one request join into one record.
const spanHeader = "X-Perfbench-Span"

// handlerSpan is the time one traced request spent inside the server's
// http.Handler, as seen by the wrapper around Server.Handler.
type handlerSpan struct {
	start, end time.Time
}

// server is one in-process ctpserve: the production serve.Server handler
// behind a loopback listener, wrapped to time traced requests.
type server struct {
	g   *ctpquery.Graph
	db  *ctpquery.DB
	url string

	http *http.Server
	done chan error // Serve's return value

	mu    sync.Mutex
	spans map[int]handlerSpan
}

// startServer loads the generated graph through its binary snapshot, opens
// a DB with the ctpserve defaults (MoLESP, parallel CTPs, sequential
// kernel, allocation tracking) plus the workload's cache and live
// settings, and serves it on 127.0.0.1 with the ctpserve default server
// configuration (admission on, tracing on, 1000-row cap).
func startServer(w *workload, snapshot []byte) (*server, error) {
	g, err := ctpquery.LoadSnapshot(bytes.NewReader(snapshot))
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	if w.live {
		g = g.Live() // default compaction threshold
	}
	opts := &ctpquery.Options{Parallel: true, TrackAllocs: true}
	if w.cacheBytes > 0 {
		opts.Cache = &ctpquery.CacheConfig{MaxBytes: w.cacheBytes}
	}
	db, err := ctpquery.Open(g, opts)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(db, serve.Config{
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     time.Minute,
		MaxRows:        1000,
		MaxParallelism: 16,
		Admission: &admission.Config{
			MaxConcurrent: serve.ClampParallelism(-1, 0),
			CheapReserve:  1,
			QueueDepth:    64,
			MaxQueueWait:  2 * time.Second,
		},
		Estimator: admission.EstimatorConfig{CheapThreshold: 50 * admission.UnitsPerMS},
		TraceRing: 256,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &server{g: g, db: db, url: "http://" + ln.Addr().String(), done: make(chan error, 1), spans: map[int]handlerSpan{}}
	srv.http = &http.Server{Handler: srv.wrap(s.Handler(false)), ReadHeaderTimeout: 10 * time.Second}
	go func() { srv.done <- srv.http.Serve(ln) }()
	return srv, nil
}

// wrap times every request that carries spanHeader.
func (s *server) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		s.mu.Lock()
		s.spans[id] = handlerSpan{start, end}
		s.mu.Unlock()
	})
}

// takeSpans returns the handler spans recorded so far and resets them.
func (s *server) takeSpans() map[int]handlerSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = map[int]handlerSpan{}
	return out
}

// close stops the listener, waits for in-flight handlers and for the
// Serve goroutine, then waits for any background compaction.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.g.Quiesce()
	return err
}

// snapshotBytes serializes a generated graph; the served DB and the
// reference DB each load their own copy, with identical node and edge IDs.
func snapshotBytes(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
