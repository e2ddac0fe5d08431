package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// noPar marks a query request that leaves parallelism to the server
// default (the request carries no "parallelism" field).
const noPar = -1

// query is one distinct EQL query a workload sends.
type query struct {
	text string
	// class buckets the query for the per-layer CTP breakdown: grid
	// (Figure 11 Line/Comb/Star), kg (Table 1 J1-J3 shapes), skew (one
	// huge seed set against one node) or rand (random-graph lookups).
	class string
}

// event is one request of a run: a query (q >= 0) or an ingest batch.
type event struct {
	// at is the due time from the start of the measured phase (open
	// loop only; a closed loop sends as soon as the previous answer is in).
	at      time.Duration
	q       int    // index into the workload's queries; -1 for ingest
	par     int    // parallelism sent with the query, or noPar
	payload []byte // the HTTP request body
}

// plan is everything a workload sends, computed up front from the seed.
type plan struct {
	queries []query
	// events is the measured phase: the repeating request sequence of a
	// closed loop, or the complete send schedule of an open loop.
	events []event
	// warm lists requests sent once, untimed, at the end of set-up.
	warm []event
}

// workload describes one served traffic mix.
type workload struct {
	name string
	// closed selects one closed-loop client; otherwise requests follow
	// the open-loop schedule.
	closed bool
	// cacheBytes is the result-cache budget (0 = cache off).
	cacheBytes int64
	// live serves the graph through the mutable store (POST /ingest).
	live bool
	// graph generates the served graph; it is part of set-up.
	graph func(seed int64) *graph.Graph
	// plan builds queries and schedule for a measured phase of length d
	// over g, the graph generated from the same seed.
	plan func(seed int64, g *graph.Graph, d time.Duration) plan
	// sizes describes the graph and load for the report.
	sizes string
	// mechanism states what the traced run must show for the workload
	// to exercise its mechanism, and whether it does.
	mechanism func(lm map[string]metric, t *layerTable) (string, bool)
}

var workloads = []*workload{ctpSearch, dashboard, liveIngest}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// queryPayload renders a POST /query body. Every request asks for row
// keys so the answer can be checked; trees are always sent in full.
func queryPayload(text string, par int) []byte {
	req := map[string]any{"query": text, "include_keys": true}
	if par != noPar {
		req["parallelism"] = par
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of strings, bools and ints always marshals
	}
	return b
}

// ---------------------------------------------------------------------------
// ctp-search: the paper's CTP evaluation, closed loop, cache off.

// ctp-search sends the same request sequence on every run: its graph is
// generated from a fixed seed (searchKGScale sizes the YAGO-like
// component, about 4*scale entities), and the run's seed only picks where
// in the fixed cycle the client starts.
const (
	searchKGScale = 2000
	searchSeed    = 1
)

// grids are the Figure 11 workloads carried by ctp-search, keyed by the
// label prefix of their component in the combined graph.
var grids = []struct {
	prefix string
	w      func() *gen.Workload
}{
	{"l3", func() *gen.Workload { return gen.Line(3, 5, gen.Alternate) }},
	{"l10", func() *gen.Workload { return gen.Line(10, 2, gen.Alternate) }},
	{"c4", func() *gen.Workload { return gen.Comb(4, 2, 3, 2, gen.Alternate) }},
	{"c6", func() *gen.Workload { return gen.Comb(6, 2, 2, 2, gen.Alternate) }},
	{"s5", func() *gen.Workload { return gen.Star(5, 4, gen.Alternate) }},
	{"s10", func() *gen.Workload { return gen.Star(10, 2, gen.Alternate) }},
}

// table1Labels is the LABEL filter of the J1 shape: every relation of
// the knowledge graph, as in the Table 1 reproduction.
const table1Labels = "LABEL worksFor founded memberOf owns bornIn livesIn citizenOf inCountry " +
	"locatedIn headquarteredIn knows spouse parentOf colleague created wrote actedIn " +
	"investsIn subsidiaryOf partnerOf"

var ctpSearch = &workload{
	name:   "ctp-search",
	closed: true,
	graph: func(int64) *graph.Graph {
		b := graph.NewBuilder()
		for _, gr := range grids {
			copyGraph(b, gr.prefix+"_", gr.w().Graph)
		}
		copyGraph(b, "", gen.YAGOLike(searchKGScale, searchSeed).Graph)
		return b.Build()
	},
	plan: func(seed int64, _ *graph.Graph, _ time.Duration) plan {
		var qs []query
		for _, gr := range grids {
			w := gr.w()
			var seeds []string
			for _, s := range w.Seeds {
				seeds = append(seeds, gr.prefix+"_"+w.Graph.NodeLabel(s[0]))
			}
			qs = append(qs, query{class: "grid",
				text: "SELECT ?w WHERE { CONNECT " + strings.Join(seeds, " ") + " AS ?w . }"})
		}
		// J3 and the skew shape anchor on person0/person1 and org0..org2:
		// the generator's preferential attachment makes the low-numbered
		// entities hubs in every seed's graph, so their cost varies little
		// from seed to seed.
		qs = append(qs,
			query{class: "kg", text: "SELECT ?p ?q ?w1 ?w2 WHERE { ?p worksFor ?o . ?q bornIn ?c . ?r created ?k . " +
				"CONNECT ?p ?q AS ?w1 UNI MAX 2 " + table1Labels + " LIMIT 5000 . " +
				"CONNECT ?o ?k AS ?w2 UNI MAX 2 " + table1Labels + " LIMIT 5000 . } LIMIT 100"},
			query{class: "kg", text: "SELECT ?p ?o ?w WHERE { ?p citizenOf ?c . ?o headquarteredIn ?pl . " +
				"CONNECT ?p ?o AS ?w MAX 3 LIMIT 200 . }"},
		)
		for person := 0; person < 2; person++ {
			qs = append(qs, query{class: "kg", text: fmt.Sprintf(
				"SELECT ?w WHERE { CONNECT person%d ?any AS ?w MAX 2 LIMIT 500 . }", person)})
		}
		for org := 0; org < 3; org++ {
			qs = append(qs, query{class: "skew", text: fmt.Sprintf(
				"SELECT ?p ?w WHERE { FILTER type(?p) = person . CONNECT ?p org%d AS ?w MAX 3 LIMIT 50 . }", org)})
		}
		// Each distinct query once sequentially and once on two workers,
		// in a fixed shuffled order that every cycle of the closed loop
		// repeats, starting at a seed-chosen point of the cycle.
		var seq []event
		for i, q := range qs {
			for _, par := range []int{0, 2} {
				seq = append(seq, event{q: i, par: par, payload: queryPayload(q.text, par)})
			}
		}
		rng := rand.New(rand.NewSource(searchSeed))
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		start := int(uint64(seed) % uint64(len(seq)))
		seq = append(seq[start:], seq[:start]...)
		var warm []event
		for i, q := range qs {
			warm = append(warm, event{q: i, par: 0, payload: queryPayload(q.text, 0)})
		}
		return plan{queries: qs, events: seq, warm: warm}
	},
	sizes: "6 Figure 11 grids + YAGO-like KG (scale 2000): 8.2k nodes, 26k edges; 13 distinct queries x parallelism {0,2}; 1 closed-loop client",
	mechanism: func(lm map[string]metric, t *layerTable) (string, bool) {
		return "CTP self time is the largest layer", t.largest() == "ctp"
	},
}

// copyGraph appends g to b as a disjoint component, prefixing every node
// label so components cannot collide.
func copyGraph(b *graph.Builder, prefix string, g *graph.Graph) {
	ids := make([]graph.NodeID, g.NumNodes())
	for n := range ids {
		ids[n] = b.AddNode(prefix + g.NodeLabel(graph.NodeID(n)))
		for _, t := range g.NodeTypes(graph.NodeID(n)) {
			b.AddType(ids[n], g.Labels().String(t))
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		b.AddEdge(ids[ed.Source], g.Labels().String(ed.Label), ids[ed.Target])
	}
}

// ---------------------------------------------------------------------------
// dashboard: a hot set of cheap lookups, open loop, cache and admission on.

const (
	dashNodes, dashEdges = 20000, 60000
	dashHot              = 64    // distinct hot queries, warmed before timing
	dashColdShare        = 0.03  // share of requests drawn outside the hot set
	dashRate             = 800.0 // requests per second
)

// dashHotTrees bounds twoEdgeTrees of a hot lookup's node: about the
// median answer size on the dashboard graph.
var dashHotTrees = [2]int{40, 50}

// twoEdgeTrees counts the paths of one or two edges from n, an upper
// bound on the rows of its neighbourhood lookup (paths that return to n
// are not trees).
func twoEdgeTrees(g *graph.Graph, n graph.NodeID) int {
	c := 0
	for _, e := range g.IncidentEdges(n) {
		c += g.Degree(g.Other(e, n))
	}
	return c
}

// neighbourhood is the dashboard and live-ingest lookup: every tree of
// at most two edges from one node to any other (a universal seed set),
// a few dozen rows with their trees.
func neighbourhood(node int, filter string) string {
	return fmt.Sprintf("SELECT ?w WHERE { CONNECT n%d ?x AS ?w MAX 2%s . }", node, filter)
}

var dashboard = &workload{
	name:       "dashboard",
	cacheBytes: 64 << 20,
	graph: func(seed int64) *graph.Graph {
		return gen.Random(dashNodes, dashEdges, []string{"knows", "cites", "funds", "worksFor"}, rand.New(rand.NewSource(seed)))
	},
	plan: func(seed int64, g *graph.Graph, d time.Duration) plan {
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		var qs []query
		index := map[int]int{} // node -> query index
		lookup := func(node int) int {
			if i, ok := index[node]; ok {
				return i
			}
			index[node] = len(qs)
			qs = append(qs, query{class: "rand", text: neighbourhood(node, "")})
			return len(qs) - 1
		}
		// Hot lookups have answers of one size, so the few that Zipf makes
		// dominant cost the same whatever the seed draws.
		var warm []event
		for len(qs) < dashHot {
			n := rng.Intn(dashNodes)
			if t := twoEdgeTrees(g, graph.NodeID(n)); t < dashHotTrees[0] || t > dashHotTrees[1] {
				continue
			}
			i := lookup(n)
			if len(warm) < len(qs) {
				warm = append(warm, event{q: i, par: noPar, payload: queryPayload(qs[i].text, noPar)})
			}
		}
		payloads := map[int][]byte{}
		zipf := rand.NewZipf(rng, 1.1, 1, dashHot-1)
		var events []event
		for _, at := range poisson(rng, dashRate, d) {
			var i int
			if rng.Float64() < dashColdShare {
				i = lookup(rng.Intn(dashNodes))
			} else {
				i = int(zipf.Uint64())
			}
			if payloads[i] == nil {
				payloads[i] = queryPayload(qs[i].text, noPar)
			}
			events = append(events, event{at: at, q: i, par: noPar, payload: payloads[i]})
		}
		return plan{queries: qs, events: events, warm: warm}
	},
	sizes: "random graph 20k nodes, 60k edges; 64 hot lookups of 40-50 two-edge paths (Zipf 1.1) + 3% cold; 800 req/s open loop over 2 connections",
	mechanism: func(lm map[string]metric, t *layerTable) (string, bool) {
		return "qcache.hit_ratio >= 0.9 and CTP self time under half of end to end",
			lm["qcache.hit_ratio"].Value >= 0.9 && t.share("ctp") < 0.5
	},
}

// poisson returns arrival times of a Poisson process of the given rate
// over [0, d).
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// ---------------------------------------------------------------------------
// live-ingest: writes beside reads on a live graph, open loop.

const (
	liveNodes, liveEdges = 20000, 60000
	liveReadRate         = 200.0 // queries per second
	liveIngestRate       = 20.0  // batches per second
	liveBatchOps         = 64    // mutation ops per batch
	liveReadSet          = 512   // distinct read queries
)

// The base graph's edges carry only liveBaseLabels, and ingest writes
// only ingestLabels, so every read (LABEL-filtered to the base labels)
// has the same answer at every epoch while it still walks adjacency
// lists the writes keep changing.
var (
	liveBaseLabels = []string{"road", "rail"}
	ingestLabels   = []string{"knows", "cites", "funds", "worksFor"}
)

var liveIngest = &workload{
	name: "live-ingest",
	// Each cached result pins the epoch view it was computed on, which
	// the cache's byte budget does not count; a small budget bounds the
	// heap those views hold.
	cacheBytes: 4 << 20,
	live:       true,
	graph: func(seed int64) *graph.Graph {
		return gen.Random(liveNodes, liveEdges, liveBaseLabels, rand.New(rand.NewSource(seed)))
	},
	plan: func(seed int64, _ *graph.Graph, d time.Duration) plan {
		rng := rand.New(rand.NewSource(seed ^ 0x11fe))
		filter := " LABEL " + strings.Join(liveBaseLabels, " ")
		var qs []query
		var warm []event
		for i := 0; i < liveReadSet; i++ {
			qs = append(qs, query{class: "rand", text: neighbourhood(rng.Intn(liveNodes), filter)})
			warm = append(warm, event{q: i, par: noPar, payload: queryPayload(qs[i].text, noPar)})
		}
		var events []event
		for _, at := range poisson(rng, liveReadRate, d) {
			i := rng.Intn(len(qs))
			events = append(events, event{at: at, q: i, par: noPar, payload: warm[i].payload})
		}
		ig := newIngestGen(liveNodes, rng.Int63())
		for _, at := range poisson(rng, liveIngestRate, d) {
			events = append(events, event{at: at, q: -1, payload: []byte(ig.batch(liveBatchOps))})
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
		return plan{queries: qs, events: events, warm: warm}
	},
	mechanism: func(lm map[string]metric, _ *layerTable) (string, bool) {
		return "graph.compactions >= 3", lm["graph.compactions"].Value >= 3
	},
	sizes: "live random graph 20k nodes, 60k edges, compaction at 4096 ops, 4 MB cache; 200 reads/s over 512 lookups on 1 connection + 20 ingest batches/s x 64 ops on 1 connection",
}

// ingestGen renders mutation batches with the op mix of the ctpload
// ingest generator: 70% edge adds between existing nodes, 15% a new node
// with one edge, 15% deletes of edges it added earlier.
type ingestGen struct {
	rng      *rand.Rand
	nodes    int
	added    []string // "e src label dst" of edges eligible for deletion
	newNodes int
}

func newIngestGen(nodes int, seed int64) *ingestGen {
	return &ingestGen{rng: rand.New(rand.NewSource(seed)), nodes: nodes}
}

// batch renders one batch of exactly ops operations.
func (g *ingestGen) batch(ops int) string {
	var b strings.Builder
	for n := 0; n < ops; {
		lbl := ingestLabels[g.rng.Intn(len(ingestLabels))]
		switch roll := g.rng.Float64(); {
		case roll < 0.70 || (roll >= 0.85 && len(g.added) == 0):
			e := fmt.Sprintf("e n%d %s n%d", g.rng.Intn(g.nodes), lbl, g.rng.Intn(g.nodes))
			g.added = append(g.added, e)
			b.WriteString("+" + e + "\n")
			n++
		case roll < 0.85:
			g.newNodes++
			node := fmt.Sprintf("ingest%d", g.newNodes)
			e := fmt.Sprintf("e %s %s n%d", node, lbl, g.rng.Intn(g.nodes))
			g.added = append(g.added, e)
			fmt.Fprintf(&b, "+n %s\n+%s\n", node, e)
			n += 2
		default:
			i := g.rng.Intn(len(g.added))
			b.WriteString("-" + g.added[i] + "\n")
			g.added[i] = g.added[len(g.added)-1]
			g.added = g.added[:len(g.added)-1]
			n++
		}
	}
	return b.String()
}
