package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"ctpquery"
	"ctpquery/internal/bgp"
	"ctpquery/internal/core"
	"ctpquery/internal/engine"
	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
)

// layerReps is how many times each direct layer call is repeated; the
// per-call figure is the median.
const layerReps = 5

// ctpClasses and ctpKs span the CTP time breakdown: every class is
// reported at parallelism 0 and 2 on every workload (0 where the
// workload sends no query of that class).
var (
	ctpClasses = []string{"grid", "kg", "skew", "rand"}
	ctpKs      = []int{0, 2}
)

// replay is one distinct query executed directly through engine.Engine.
type replay struct {
	execMS, bgpMS, ctpMS, joinMS float64
	bgpRows, joinRows            int
	stats                        []*core.Stats
}

// unattributedMS is the engine's time outside its three phases.
func (r *replay) unattributedMS() float64 {
	return math.Max(0, r.execMS-r.bgpMS-r.ctpMS-r.joinMS)
}

// pairKey identifies a distinct query at one parallelism.
type pairKey struct{ q, k int }

// traceLayers derives the per-layer metrics of a traced run: from the
// traced requests' client and handler timestamps and reported fields,
// and from direct calls into eql, qcache, engine and bgp for each
// distinct query sent. It prints the layer table to out.
func traceLayers(ctx context.Context, out io.Writer, w *workload, p plan, base *graph.Graph, srv *server, m *measurement) (map[string]metric, error) {
	// How often each (query, parallelism) was sent; the server default
	// is the sequential kernel.
	sent := map[pairKey]int{}
	perQuery := map[int]int{}
	for i := range m.recs {
		if r := &m.recs[i]; r.q >= 0 {
			sent[pairKey{r.q, effK(r.par)}]++
			perQuery[r.q]++
		}
	}

	parseUS := map[int]float64{}
	lookupUS := map[int]float64{}
	parsed := map[int]*eql.Query{}
	for q := range perQuery {
		text := p.queries[q].text
		var fq *ctpquery.Query
		var times []float64
		for i := 0; i < layerReps; i++ {
			t := time.Now()
			var err error
			if fq, err = ctpquery.ParseQuery(text); err != nil {
				return nil, err
			}
			times = append(times, float64(time.Since(t))/1e3)
		}
		parseUS[q] = median(times)
		if w.cacheBytes > 0 {
			times = times[:0]
			for i := 0; i < layerReps; i++ {
				t := time.Now()
				srv.db.Peek(fq)
				times = append(times, float64(time.Since(t))/1e3)
			}
			lookupUS[q] = median(times)
		}
		eq, err := eql.Parse(text)
		if err != nil {
			return nil, err
		}
		parsed[q] = eq
	}

	// Engine replay of every distinct query at each parallelism of the
	// breakdown, on the frozen generated graph.
	reps := map[pairKey]*replay{}
	for q, eq := range parsed {
		for _, k := range ctpKs {
			r, err := replayQuery(ctx, base, eq, k)
			if err != nil {
				return nil, fmt.Errorf("replay %q: %w", p.queries[q].text, err)
			}
			reps[pairKey{q, k}] = r
		}
	}

	lm := map[string]metric{}
	set := func(name, unit string, v float64, n int) { lm[name] = metric{Value: v, Unit: unit, n: n} }

	// Request-weighted engine figures over the pairs actually sent.
	var wsum, exec, unattr, bgpMS, joinMS, bgpRows, joinRows float64
	var created, pruned, kept, pops, peak, results float64
	for pk, n := range sent {
		r := reps[pk]
		fn := float64(n)
		wsum += fn
		exec += fn * r.execMS
		unattr += fn * r.unattributedMS()
		bgpMS += fn * r.bgpMS
		joinMS += fn * r.joinMS
		bgpRows += fn * float64(r.bgpRows)
		joinRows += fn * float64(r.joinRows)
		for _, st := range r.stats {
			created += fn * float64(st.Created)
			pruned += fn * float64(st.Pruned)
			kept += fn * float64(st.Kept())
			pops += fn * float64(st.QueuePops)
			peak += fn * float64(st.PeakTrees)
			results += fn * float64(st.Results)
		}
	}
	nq := len(parsed)
	set("engine.exec_ms", "ms", ratio(exec, wsum), nq)
	set("engine.unattributed_ms", "ms", ratio(unattr, wsum), nq)
	set("bgp.ms", "ms", ratio(bgpMS, wsum), nq)
	set("bgp.rows", "count", ratio(bgpRows, wsum), nq)
	set("join.ms", "ms", ratio(joinMS, wsum), nq)
	set("join.rows", "count", ratio(joinRows, wsum), nq)
	set("ctp.created", "count", ratio(created, wsum), nq)
	set("ctp.pruned", "count", ratio(pruned, wsum), nq)
	set("ctp.kept", "count", ratio(kept, wsum), nq)
	set("ctp.queue_pops", "count", ratio(pops, wsum), nq)
	set("ctp.peak_trees", "count", ratio(peak, wsum), nq)
	set("ctp.prune_ratio", "ratio", ratio(pruned, created), nq)
	set("ctp.useful_ratio", "ratio", ratio(results, created), nq)

	for _, class := range ctpClasses {
		for _, k := range ctpKs {
			var times []float64
			for pk, r := range reps {
				if pk.k == k && p.queries[pk.q].class == class {
					times = append(times, r.ctpMS)
				}
			}
			set(fmt.Sprintf("ctp.%s.k%d_ms", class, k), "ms", mean(times), len(times))
		}
	}
	var stolen, shipped, busy, wall float64
	for pk, r := range reps {
		if pk.k != 2 {
			continue
		}
		for _, st := range r.stats {
			for _, ws := range st.Workers {
				stolen += float64(ws.Stolen)
				shipped += float64(ws.Shipped)
				busy += float64(ws.BusyNS)
				wall += float64(ws.WallNS)
			}
		}
	}
	set("exec.stolen", "count", ratio(stolen, float64(nq)), nq)
	set("exec.shipped", "count", ratio(shipped, float64(nq)), nq)
	set("exec.busy_ratio", "ratio", ratio(busy, wall), nq)

	var parseAll, lookupAll []float64
	for q, n := range perQuery {
		for i := 0; i < n; i++ {
			parseAll = append(parseAll, parseUS[q])
			if w.cacheBytes > 0 {
				lookupAll = append(lookupAll, lookupUS[q])
			}
		}
	}
	set("eql.parse_us", "us", mean(parseAll), nq)
	set("qcache.lookup_us", "us", mean(lookupAll), nq)

	c0, c1 := m.cache0, m.cache1
	lookups := float64((c1.hits - c0.hits) + (c1.misses - c0.misses) + (c1.coalesced - c0.coalesced))
	set("qcache.hit_ratio", "ratio", ratio(float64(c1.hits-c0.hits), lookups), int(lookups))
	set("qcache.coalesced_ratio", "ratio", ratio(float64(c1.coalesced-c0.coalesced), lookups), int(lookups))
	set("qcache.evictions", "count", float64(c1.evictions-c0.evictions), 0)
	set("qcache.bytes", "bytes", float64(c1.bytes), 0)

	set("graph.compactions", "count", float64(m.store.compactions), 0)
	set("graph.compact_ms", "ms", mean(m.store.compactMS), len(m.store.compactMS))
	set("graph.delta_edges_peak", "count", float64(m.store.deltaEdgesPeak), 0)
	set("graph.pending_ops_peak", "count", float64(m.store.pendingOpsPeak), 0)

	// Per-request figures from the traced run.
	var late, decode, respBytes, handler, transport, self, ingestHandler []float64
	var waits, estErr []float64
	tracedLat, untracedLat := map[pairKey][]float64{}, map[pairKey][]float64{}
	var shed, queries int
	rows := newLayerTable()
	for i := range m.recs {
		r := &m.recs[i]
		if r.ok && r.sent > 0 {
			late = append(late, ms(r.sent-r.due))
		}
		if r.q < 0 {
			if hs, ok := m.spans[i]; ok && r.traced && r.ok {
				ingestHandler = append(ingestHandler, ms(hs.end.Sub(hs.start)))
			}
			continue
		}
		queries++
		if r.status == 429 {
			shed++
		}
		if !r.ok {
			continue
		}
		if pk := (pairKey{r.q, r.par}); r.traced {
			tracedLat[pk] = append(tracedLat[pk], ms(r.latency()))
		} else {
			untracedLat[pk] = append(untracedLat[pk], ms(r.latency()))
		}
		executed := !r.hit && !r.coalesced
		if r.admitted {
			waits = append(waits, r.waitMS)
		}
		if r.actualUnits > 0 && r.estUnits > 0 {
			estErr = append(estErr, math.Abs(math.Log(r.estUnits/r.actualUnits)))
		}
		hs, ok := m.spans[i]
		if !r.traced || !ok {
			continue
		}
		hMS := ms(hs.end.Sub(hs.start))
		tMS := ms(hs.start.Sub(d0(m, r.sent))) + ms(d0(m, r.body).Sub(hs.end))
		phases := 0.0
		if executed {
			phases = r.bgpMS + r.ctpMS + r.joinMS
		}
		decode = append(decode, ms(r.decoded-r.body))
		respBytes = append(respBytes, float64(r.bytes))
		handler = append(handler, hMS)
		transport = append(transport, tMS)
		self = append(self, hMS-r.waitMS-phases)

		row := map[string]float64{
			"client.sched_late":    ms(r.sent - r.due),
			"client.decode":        ms(r.decoded - r.body),
			"serve.transport":      tMS,
			"serve.encode":         hMS - r.totalMS,
			"admission.queue_wait": r.waitMS,
			"eql.parse":            parseUS[r.q] / 1e3,
			"qcache.lookup":        lookupUS[r.q] / 1e3,
		}
		if executed {
			row["engine"] = reps[pairKey{r.q, effK(r.par)}].unattributedMS()
			row["bgp"], row["ctp"], row["storage.join"] = r.bgpMS, r.ctpMS, r.joinMS
		}
		rows.add(ms(r.latency()), row)
	}
	set("client.sched_late_p99_ms", "ms", quantile(late, 0.99), len(late))
	set("client.decode_ms", "ms", median(decode), len(decode))
	set("client.resp_bytes", "bytes", median(respBytes), len(respBytes))
	set("serve.handler_ms", "ms", median(handler), len(handler))
	set("serve.transport_ms", "ms", median(transport), len(transport))
	set("serve.self_ms", "ms", median(self), len(self))
	set("serve.ingest_handler_ms", "ms", median(ingestHandler), len(ingestHandler))
	set("admission.queue_wait_p99_ms", "ms", quantile(waits, 0.99), len(waits))
	set("admission.shed_ratio", "ratio", ratio(float64(shed), float64(queries)), queries)
	set("admission.est_error", "ratio", median(estErr), len(estErr))
	overhead, pairs := traceOverhead(tracedLat, untracedLat)
	set("bench.trace_overhead_ratio", "ratio", overhead, pairs)

	unattrMS, e2eMS := rows.print(out)
	set("unattributed_ms", "ms", unattrMS, rows.n)
	set("unattributed_ratio", "ratio", ratio(unattrMS, e2eMS), rows.n)
	what, ok := w.mechanism(lm, rows)
	verdict := "holds"
	if !ok {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(out, "mechanism check (%s): %s\n", what, verdict)
	return lm, nil
}

// traceOverhead is the benchmark's own tracing cost: per distinct
// request (query and parallelism) sent at least three times each way,
// the ratio of the traced to the untraced median latency; their median,
// minus one. Pairing by request cancels the mix of cheap and expensive
// queries.
func traceOverhead(traced, untraced map[pairKey][]float64) (float64, int) {
	var ratios []float64
	for pk, t := range traced {
		u := untraced[pk]
		if len(t) >= 3 && len(u) >= 3 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	if len(ratios) == 0 {
		return 0, 0
	}
	return median(ratios) - 1, len(ratios)
}

// effK maps a request's parallelism to the worker count it ran with.
func effK(par int) int {
	if par == noPar {
		return 0
	}
	return par
}

// d0 turns a load-generator offset back into an instant.
func d0(m *measurement, off time.Duration) time.Time { return m.base.Add(off) }

// replayQuery executes eq through engine.Engine on g with the served
// options at parallelism k, layerReps times, keeping the run with the
// median wall time; bgp.rows comes from bgp.Evaluate on each BGP.
func replayQuery(ctx context.Context, g *graph.Graph, eq *eql.Query, k int) (*replay, error) {
	eng := engine.New(g, engine.Options{Algorithm: core.MoLESP, Parallel: true, Parallelism: k})
	var runs []*replay
	for i := 0; i < layerReps; i++ {
		t := time.Now()
		res, err := eng.ExecuteContext(ctx, eq)
		if err != nil {
			return nil, err
		}
		runs = append(runs, &replay{
			execMS: ms(time.Since(t)), bgpMS: ms(res.BGPTime), ctpMS: ms(res.CTPTime), joinMS: ms(res.JoinTime),
			joinRows: res.Table.NumRows(), stats: res.CTPStats,
		})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].execMS < runs[j].execMS })
	r := runs[len(runs)/2]
	for _, b := range eq.BGPs {
		t, err := bgp.Evaluate(g, b)
		if err != nil {
			return nil, err
		}
		r.bgpRows += t.NumRows()
	}
	return r, nil
}

// layerOrder is the layer table's row order, outermost first.
var layerOrder = []string{
	"client.sched_late", "serve.transport", "serve.encode", "eql.parse", "qcache.lookup",
	"admission.queue_wait", "engine", "bgp", "ctp", "storage.join", "client.decode",
}

// layerTable accumulates per-request layer self times.
type layerTable struct {
	n    int
	e2e  float64
	sums map[string]float64
}

func newLayerTable() *layerTable { return &layerTable{sums: map[string]float64{}} }

func (t *layerTable) add(e2eMS float64, row map[string]float64) {
	t.n++
	t.e2e += e2eMS
	for k, v := range row {
		t.sums[k] += v
	}
}

// mean returns a layer's mean self time per request.
func (t *layerTable) mean(layer string) float64 { return ratio(t.sums[layer], float64(t.n)) }

// share returns a layer's share of the mean end-to-end time.
func (t *layerTable) share(layer string) float64 { return ratio(t.sums[layer], t.e2e) }

// largest names the layer with the largest self time.
func (t *layerTable) largest() string {
	best := ""
	for _, name := range layerOrder {
		if best == "" || t.sums[name] > t.sums[best] {
			best = name
		}
	}
	return best
}

// print writes one row per layer (mean self time per traced request and
// its share of end to end) plus the unattributed remainder, and returns
// the mean unattributed and end-to-end times.
func (t *layerTable) print(out io.Writer) (unattributed, e2e float64) {
	if t.n == 0 {
		fmt.Fprintln(out, "layer table: no traced query requests")
		return 0, 0
	}
	n := float64(t.n)
	e2e = t.e2e / n
	fmt.Fprintf(out, "layer table (mean self time per traced query request, n=%d):\n", t.n)
	fmt.Fprintf(out, "  %-22s %12s %8s\n", "layer", "self_ms", "share")
	var sum float64
	for _, name := range layerOrder {
		v := t.mean(name)
		sum += v
		fmt.Fprintf(out, "  %-22s %12.4f %7.1f%%\n", name, v, 100*ratio(v, e2e))
	}
	unattributed = e2e - sum
	fmt.Fprintf(out, "  %-22s %12.4f %7.1f%%\n", "unattributed", unattributed, 100*ratio(unattributed, e2e))
	fmt.Fprintf(out, "  %-22s %12.4f %7.1f%%\n", "end to end", e2e, 100.0)
	return unattributed, e2e
}
