package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// queryResponse mirrors the fields of ctpserve's POST /query answer that
// the benchmark checks or attributes to a layer.
type queryResponse struct {
	Columns       []string             `json:"columns"`
	Rows          []map[string]rowCell `json:"rows"`
	RowKeys       []string             `json:"row_keys"`
	RowCount      int                  `json:"row_count"`
	RowsTruncated bool                 `json:"rows_truncated"`
	TimedOut      bool                 `json:"timed_out"`
	TimingsMS     struct {
		BGP, CTP, Join, Total float64
	} `json:"timings_ms"`
	Cache *struct {
		Hit, Coalesced bool
	} `json:"cache"`
	Admission *struct {
		EstimatedUnits float64 `json:"estimated_units"`
		ActualUnits    float64 `json:"actual_units"`
		QueueWaitMS    float64 `json:"queue_wait_ms"`
		CacheBypass    bool    `json:"cache_bypass"`
	} `json:"admission"`
}

// rowCell is one result cell. Decoding every row into cells is part of
// the request: a request ends when its rows are decoded.
type rowCell struct {
	ID    *int32 `json:"id"`
	Label string `json:"label"`
	Tree  *struct {
		Size  int    `json:"size"`
		Root  string `json:"root"`
		Edges []struct {
			Src, Label, Dst string
		} `json:"edges"`
	} `json:"tree"`
}

// ingestResponse mirrors the fields of the POST /ingest answer.
type ingestResponse struct {
	Epoch   uint64 `json:"epoch"`
	Batches int    `json:"batches"`
}

// record is the outcome of one request. Times are offsets from the
// load generator's base instant; a request that was never answered keeps ok
// false and counts as missing every latency limit.
type record struct {
	q       int // query index, -1 for ingest
	par     int
	due     time.Duration
	sent    time.Duration
	body    time.Duration // body read
	decoded time.Duration // rows decoded: the end of the request
	status  int
	bytes   int
	ok      bool
	err     string
	traced  bool

	// Reported by the server (queries).
	waitMS, bgpMS, ctpMS, joinMS, totalMS float64
	hit, coalesced                        bool
	admitted                              bool // queued for an admission slot (not a cache bypass)
	estUnits, actualUnits                 float64
	// Acknowledged epoch (ingest).
	epoch uint64
}

// latency is the request's end-to-end time from its due time.
func (r *record) latency() time.Duration { return r.decoded - r.due }

// checkFunc verifies a decoded query answer against the expected one.
type checkFunc func(q int, resp *queryResponse) error

// loadgen sends requests to one server over at most conns connections.
type loadgen struct {
	client *http.Client
	url    string
	base   time.Time
	check  checkFunc
	// trace selects the requests that carry spanHeader.
	trace func(id int) bool
}

func newLoadgen(url string, conns int, check checkFunc) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:    url,
		base:   time.Now(),
		check:  check,
		trace:  func(int) bool { return false },
	}
}

// close drops the load generator's idle connections.
func (d *loadgen) close() { d.client.CloseIdleConnections() }

// do sends one request due at due and waits for its decoded answer.
func (d *loadgen) do(ctx context.Context, ev *event, id int, due time.Time) record {
	r := record{q: ev.q, par: ev.par, due: due.Sub(d.base)}
	path, ctype := "/query", "application/json"
	if ev.q < 0 {
		path, ctype = "/ingest", "text/plain"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(ev.payload))
	if err != nil {
		r.err = err.Error()
		return r
	}
	req.Header.Set("Content-Type", ctype)
	if d.trace(id) {
		r.traced = true
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	sent := time.Now()
	r.sent = sent.Sub(d.base)
	resp, err := d.client.Do(req)
	if err != nil {
		r.err = err.Error()
		r.decoded = time.Since(d.base)
		return r
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.body = time.Since(d.base)
	r.status, r.bytes = resp.StatusCode, len(b)
	if err != nil {
		r.err = err.Error()
		r.decoded = r.body
		return r
	}
	if ev.q < 0 {
		var ir ingestResponse
		err = json.Unmarshal(b, &ir)
		r.decoded = time.Since(d.base)
		r.epoch = ir.Epoch
		switch {
		case resp.StatusCode != http.StatusOK:
			r.err = fmt.Sprintf("ingest: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		case err != nil:
			r.err = "ingest: " + err.Error()
		case ir.Batches != 1:
			r.err = fmt.Sprintf("ingest: %d batches acknowledged, want 1", ir.Batches)
		default:
			r.ok = true
		}
		return r
	}
	var qr queryResponse
	err = json.Unmarshal(b, &qr)
	r.decoded = time.Since(d.base)
	switch {
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return r
	case err != nil:
		r.err = "decode: " + err.Error()
		return r
	}
	r.bgpMS, r.ctpMS, r.joinMS, r.totalMS = qr.TimingsMS.BGP, qr.TimingsMS.CTP, qr.TimingsMS.Join, qr.TimingsMS.Total
	if qr.Cache != nil {
		r.hit, r.coalesced = qr.Cache.Hit, qr.Cache.Coalesced
	}
	if a := qr.Admission; a != nil {
		r.waitMS, r.admitted = a.QueueWaitMS, !a.CacheBypass
		r.estUnits, r.actualUnits = a.EstimatedUnits, a.ActualUnits
	}
	if err := d.check(ev.q, &qr); err != nil {
		r.err = err.Error()
		return r
	}
	r.ok = true
	return r
}

// runClosed is a closed loop with one client: it sends seq in order,
// cycling, each request as soon as the previous answer is decoded, until
// dur has passed. It returns the start offset of every cycle.
func (d *loadgen) runClosed(ctx context.Context, seq []event, dur time.Duration) ([]record, []time.Duration) {
	var recs []record
	var cycles []time.Duration
	end := time.Now().Add(dur)
	for id := 0; ; id++ {
		now := time.Now()
		if id%len(seq) == 0 {
			cycles = append(cycles, now.Sub(d.base))
		}
		if !now.Before(end) || ctx.Err() != nil {
			return recs, cycles
		}
		recs = append(recs, d.do(ctx, &seq[id%len(seq)], id, now))
	}
}

// stream is one open-loop arrival stream: the indices of its events in
// the schedule, in due order, and the senders that serve it.
type stream struct {
	events  []int
	senders int
}

// runOpen sends every event of sched at its due time and times each
// request from its due time, so a stall delays and charges every request
// queued behind it (no coordinated omission). Each stream has its own
// sender goroutines, one connection each; no event is dropped, a sender
// that falls behind sends late. Events still unsent when ctx ends are
// returned unanswered, as failures. Due times count from start; a
// request's ID is its index in sched.
func (d *loadgen) runOpen(ctx context.Context, start time.Time, sched []event, streams []stream) []record {
	recs := make([]record, len(sched))
	var wg sync.WaitGroup
	for _, st := range streams {
		var next atomic.Int64
		for s := 0; s < st.senders; s++ {
			wg.Add(1)
			go func(st stream) {
				defer wg.Done()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(st.events) {
						return
					}
					i := st.events[n]
					due := start.Add(sched[i].at)
					sleepUntil(due)
					if ctx.Err() != nil {
						recs[i] = record{q: sched[i].q, par: sched[i].par, due: due.Sub(d.base),
							err: "not sent: " + ctx.Err().Error()}
						continue
					}
					recs[i] = d.do(ctx, &sched[i], i, due)
				}
			}(st)
		}
	}
	wg.Wait()
	return recs
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// Go timers wake a goroutine up to a millisecond late when the process
// is idle (the runtime's poller waits in whole milliseconds), which
// would show as sender lateness; the thread sleep is accurate to tens of
// microseconds, and the runtime hands the thread's P to other goroutines
// meanwhile. Waits are short: the gaps of the send schedule.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// openStreams splits a schedule into its query and ingest streams. With
// both present each gets one of the conns senders; a lone query stream
// gets them all.
func openStreams(sched []event, conns int) []stream {
	var queries, ingest []int
	for i := range sched {
		if sched[i].q < 0 {
			ingest = append(ingest, i)
		} else {
			queries = append(queries, i)
		}
	}
	if len(ingest) == 0 {
		return []stream{{queries, conns}}
	}
	half := conns / 2
	if half < 1 {
		half = 1
	}
	return []stream{{queries, conns - half}, {ingest, half}}
}
