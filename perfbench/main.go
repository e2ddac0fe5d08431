// Command perfbench is the repository's benchmark: it serves one of three
// workloads through the production serving path (serve.New(db,
// cfg).Handler on a loopback listener inside this process), checks every
// answer against a separate reference DB, and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics, ending with one JSON
// line. See README.md in this directory for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ctp-search --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ctpquery"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, 0 when it is a single reading
}

// result is the command's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: ctp-search, dashboard or live-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated graph, queries and schedule")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	o.setups = 3
	if o.workload == "" || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds > 0 and --trace 0|1")
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// JSON has no infinity: a percentile that failed requests pushed to
	// +Inf prints as the largest float.
	for name, m := range res.Metrics {
		if math.IsInf(m.Value, 1) {
			m.Value = math.MaxFloat64
			res.Metrics[name] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and reports to out (everything
// but the final JSON line, which the caller prints).
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	window := time.Duration(o.seconds * float64(time.Second))
	fmt.Fprintf(out, "workload %s, seed %d, %v measured, trace %v\n  %s\n", w.name, o.seed, window, o.trace, w.sizes)

	// The plan and the expected answers come from the checker's own copy
	// of the graph; neither is part of set-up time.
	base := w.graph(o.seed)
	p := w.plan(o.seed, base, window)
	snap, err := snapshotBytes(base)
	if err != nil {
		return nil, err
	}
	want, err := expectAnswers(ctx, snap, p.queries)
	if err != nil {
		return nil, err
	}
	check := checker(p.queries, want)

	var srv *server
	var setupS []float64
	var warmRecs []record
	for i := 0; i < o.setups; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if srv, warmRecs, err = setup(ctx, w, o.seed, p.warm, check); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer srv.close()
	fmt.Fprintf(out, "  graph %d nodes, %d edges; %d distinct queries; %d requests scheduled\n",
		srv.g.NumNodes(), srv.g.NumEdges(), len(p.queries), len(p.events))

	d := newLoadgen(srv.url, runtime.NumCPU(), check)
	defer d.close()
	if o.trace {
		cycle := len(p.events)
		d.trace = func(id int) bool {
			if w.closed { // alternate per cycle, so each request of the sequence is traced half the time
				return (id+id/cycle)%2 == 0
			}
			return id%2 == 0
		}
	}
	m := measure(ctx, w, p, srv, d, window)

	// Warm-up answers are checked and counted like measured ones.
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var fails []string
	all := append(append([]record(nil), warmRecs...), m.recs...)
	for i := range all {
		r := &all[i]
		res.Attempted++
		if !r.ok {
			res.Failed++
			res.Correct = false
			if len(fails) < 10 {
				fails = append(fails, r.err)
			}
		}
	}
	fails = append(fails, m.storeErrs...)
	if len(m.storeErrs) > 0 {
		res.Correct = false
	}
	for _, f := range fails {
		fmt.Fprintln(out, "  FAILED:", f)
	}

	printPerQuery(out, p.queries, m.recs)
	fmt.Fprintf(out, "windows (qps, p50 ms, p99 ms):")
	for _, w := range m.windows {
		fmt.Fprintf(out, " (%.1f, %.3f, %.2f)", w.qps, w.p50, w.p99)
	}
	fmt.Fprintln(out)
	e2e := endToEnd(m)
	e2e["setup_s"] = metric{Value: median(setupS), Unit: "s", n: len(setupS)}
	printMetrics(out, "end-to-end metrics", e2e)
	if !o.trace {
		for _, name := range endToEndNames {
			res.Metrics[name] = e2e[name]
		}
		return res, nil
	}
	layers, err := traceLayers(ctx, out, w, p, base, srv, m)
	if err != nil {
		return nil, err
	}
	// The client's latency and failure figures of the traced run, under
	// their layer names: query latency is too noisy on a shared machine
	// to carry a bound (see README.md), so it is reported, not gated.
	for _, name := range []string{"query_p50_ms", "query_p99_ms", "query_fail_ratio", "ingest_p50_ms", "ingest_p99_ms", "ingest_fail_ratio"} {
		v, ok := e2e[name]
		if !ok {
			v = metric{Unit: unitOf(name)}
		}
		layers["client."+name] = v
	}
	printMetrics(out, "per-layer metrics", layers)
	res.Metrics = layers
	return res, nil
}

// endToEndNames are the end-to-end metrics the final JSON line carries:
// those every workload reports, never 0, and steady enough from run to
// run to carry a bound.
var endToEndNames = []string{"setup_s", "query_qps", "cpu_ms_per_req", "live_heap_mb"}

// unitOf returns the unit of a client metric by its name's suffix.
func unitOf(name string) string {
	if strings.HasSuffix(name, "_ms") {
		return "ms"
	}
	return "ratio"
}

// setup builds one serving instance: generates the graph, loads it, opens
// the DB, starts the server and sends the warm-up requests.
func setup(ctx context.Context, w *workload, seed int64, warm []event, check checkFunc) (*server, []record, error) {
	snap, err := snapshotBytes(w.graph(seed))
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(w, snap)
	if err != nil {
		return nil, nil, err
	}
	d := newLoadgen(srv.url, 1, check)
	defer d.close()
	recs := make([]record, len(warm))
	for i := range warm {
		recs[i] = d.do(ctx, &warm[i], i, time.Now())
	}
	return srv, recs, nil
}

// measurement is what the measured phase leaves behind.
type measurement struct {
	recs      []record
	base      time.Time // the load generator's time origin for record offsets
	windows   []windowStats
	heapLive  []float64     // live heap readings over the phase, bytes
	cpu       time.Duration // process user+sys CPU over the phase
	cache0    cacheCounters
	cache1    cacheCounters
	store     storeSample
	storeErrs []string
	spans     map[int]handlerSpan
}

// measure runs the measured phase.
func measure(ctx context.Context, w *workload, p plan, srv *server, d *loadgen, window time.Duration) *measurement {
	m := &measurement{base: d.base, cache0: cacheCountersOf(srv)}
	stores := startStoreSampler(srv.g)
	heap := startHeapSampler()
	cpu0 := processCPU()
	start := time.Now()
	if w.closed {
		var cycles []time.Duration
		m.recs, cycles = d.runClosed(ctx, p.events, window)
		var bounds []time.Duration
		for i := 0; i < len(cycles); i += closedWindowCycles {
			bounds = append(bounds, cycles[i])
		}
		m.windows = windowed(m.recs, bounds)
	} else {
		// Requests not answered a minute after the window count as failed.
		octx, cancel := context.WithTimeout(ctx, window+time.Minute)
		m.recs = d.runOpen(octx, start, p.events, openStreams(p.events, runtime.NumCPU()))
		cancel()
		var bounds []time.Duration
		for at := time.Duration(0); at <= window; at += openWindow {
			bounds = append(bounds, start.Add(at).Sub(d.base))
		}
		m.windows = windowed(m.recs, bounds)
	}
	m.cpu = processCPU() - cpu0
	m.heapLive = heap.stop()
	m.store = stores.stop()
	m.cache1 = cacheCountersOf(srv)
	m.spans = srv.takeSpans()

	if srv.g.IsLive() {
		srv.g.Quiesce()
		st, _ := srv.g.StoreStats()
		var acked uint64
		for i := range m.recs {
			if r := &m.recs[i]; r.q < 0 && r.ok && r.epoch > acked {
				acked = r.epoch
			}
		}
		if st.Epoch != acked {
			m.storeErrs = append(m.storeErrs, fmt.Sprintf("store epoch %d, last acknowledged ingest epoch %d", st.Epoch, acked))
		}
		if st.CompactAborts != 0 {
			m.storeErrs = append(m.storeErrs, fmt.Sprintf("%d compactions aborted", st.CompactAborts))
		}
	}
	return m
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd computes the end-to-end metrics of a measured phase: query
// rate and latencies as medians over its windows (p99 over the whole
// phase when a window holds too few samples for its own); CPU, counts and
// ratios over the whole phase.
func endToEnd(m *measurement) map[string]metric {
	q := latenciesMS(m.recs, false)
	in := latenciesMS(m.recs, true)
	var okAll, failQ, failIn int
	for i := range m.recs {
		switch r := &m.recs[i]; {
		case r.ok:
			okAll++
		case r.q >= 0:
			failQ++
		default:
			failIn++
		}
	}
	var qps, p50, p99 []float64
	perWindowP99 := len(m.windows) > 0
	for _, w := range m.windows {
		qps = append(qps, w.qps)
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
		perWindowP99 = perWindowP99 && w.samples >= minP99Samples
	}
	nw := len(m.windows)
	out := map[string]metric{
		"query_qps":        {Value: median(qps), Unit: "1/s", n: nw},
		"query_p50_ms":     {Value: median(p50), Unit: "ms", n: nw},
		"query_p99_ms":     {Value: median(p99), Unit: "ms", n: nw},
		"query_fail_ratio": {Value: ratio(float64(failQ), float64(len(q))), Unit: "ratio", n: len(q)},
		"cpu_ms_per_req":   {Value: ratio(ms(m.cpu), float64(okAll)), Unit: "ms", n: okAll},
		"live_heap_mb":     {Value: median(m.heapLive) / (1 << 20), Unit: "MB", n: len(m.heapLive)},
	}
	if !perWindowP99 {
		out["query_p99_ms"] = metric{Value: quantile(q, 0.99), Unit: "ms", n: len(q)}
	}
	if len(in) > 0 {
		out["ingest_p50_ms"] = metric{Value: median(in), Unit: "ms", n: len(in)}
		out["ingest_p99_ms"] = metric{Value: quantile(in, 0.99), Unit: "ms", n: len(in)}
		out["ingest_fail_ratio"] = metric{Value: ratio(float64(failIn), float64(len(in))), Unit: "ratio", n: len(in)}
	}
	return out
}

// printPerQuery prints the median latency of each (query, parallelism)
// pair when there are few enough pairs to read.
func printPerQuery(out io.Writer, qs []query, recs []record) {
	lat := map[pairKey][]float64{}
	for i := range recs {
		if r := &recs[i]; r.q >= 0 {
			k := pairKey{r.q, r.par}
			lat[k] = append(lat[k], ms(r.latency()))
		}
	}
	if len(lat) > 32 {
		return
	}
	keys := make([]pairKey, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return median(lat[keys[i]]) < median(lat[keys[j]]) })
	fmt.Fprintln(out, "per-query median latency:")
	for _, k := range keys {
		par := "default"
		if k.k != noPar {
			par = fmt.Sprint(k.k)
		}
		text := qs[k.q].text
		if len(text) > 90 {
			text = text[:90] + "..."
		}
		fmt.Fprintf(out, "  %10.3f ms  n=%-4d par=%-7s %s\n", median(lat[k]), len(lat[k]), par, text)
	}
}

// printMetrics prints one metric per line, sorted by name, with unit and
// sample count.
func printMetrics(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s:\n", title)
	for _, n := range names {
		m := ms[n]
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(out, "  %-30s %14.4f %-6s%s\n", n, m.Value, m.Unit, samples)
	}
}

// cacheCounters is a snapshot of the served DB's result-cache counters.
type cacheCounters struct {
	on                                 bool
	hits, misses, coalesced, evictions int64
	bytes                              int64
}

func cacheCountersOf(s *server) cacheCounters {
	st, ok := s.db.CacheStats()
	return cacheCounters{on: ok, hits: st.Hits, misses: st.Misses, coalesced: st.Coalesced,
		evictions: st.Evictions, bytes: st.Bytes}
}

// storeSample summarizes the live store over the measured phase, read by
// sampling StoreStats (serve.New owns the single compaction observer).
type storeSample struct {
	compactions    uint64
	compactMS      []float64 // LastCompactNS after each compaction seen
	deltaEdgesPeak int
	pendingOpsPeak int
}

type storeSampler struct {
	stopc chan struct{}
	done  chan storeSample
}

// startStoreSampler samples g's StoreStats every 10ms (ingest batches
// arrive every 50ms on average) until stop; on a frozen graph it samples
// nothing.
func startStoreSampler(g *ctpquery.Graph) *storeSampler {
	s := &storeSampler{stopc: make(chan struct{}), done: make(chan storeSample, 1)}
	first, live := g.StoreStats()
	if !live {
		s.done <- storeSample{}
		return s
	}
	go func() {
		var out storeSample
		last := first.Compactions
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			st, _ := g.StoreStats()
			if st.Compactions != last {
				out.compactions += st.Compactions - last
				out.compactMS = append(out.compactMS, float64(st.LastCompactNS)/1e6)
				last = st.Compactions
			}
			if st.DeltaEdges > out.deltaEdgesPeak {
				out.deltaEdgesPeak = st.DeltaEdges
			}
			if st.PendingOps > out.pendingOpsPeak {
				out.pendingOpsPeak = st.PendingOps
			}
			select {
			case <-s.stopc:
				s.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the summary once the sampler has exited.
func (s *storeSampler) stop() storeSample {
	close(s.stopc)
	return <-s.done
}
