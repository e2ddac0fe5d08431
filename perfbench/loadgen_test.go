package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall stalls the first request in the handler and
// checks that every request due during the stall is charged the wait
// from its due time, and that none is dropped.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"columns":["w"],"rows":[],"row_count":0}`))
	}))
	defer srv.Close()

	var sched []event
	for i := 0; i < 40; i++ {
		sched = append(sched, event{at: time.Duration(i) * 10 * time.Millisecond, q: 0, par: noPar, payload: []byte(`{}`)})
	}
	d := newLoadgen(srv.URL, 1, func(int, *queryResponse) error { return nil })
	defer d.close()
	recs := d.runOpen(context.Background(), time.Now(), sched, []stream{{events: indices(len(sched)), senders: 1}})

	for i, r := range recs {
		if !r.ok {
			t.Fatalf("request %d: %s", i, r.err)
		}
		// A request due before the stall ended waited for it.
		if at := sched[i].at; at < stall {
			if want := stall - at - 5*time.Millisecond; r.latency() < want {
				t.Errorf("request %d due at %v: latency %v, want at least %v", i, at, r.latency(), want)
			}
			if i > 0 && r.sent-r.due < stall-sched[i].at-5*time.Millisecond {
				t.Errorf("request %d due at %v sent only %v late", i, sched[i].at, r.sent-r.due)
			}
		}
	}
	if last := recs[len(recs)-1]; last.latency() > 50*time.Millisecond {
		t.Errorf("the sender never caught up: last request took %v", last.latency())
	}
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestOpenStreamsCapsSenders(t *testing.T) {
	sched := []event{{q: 0}, {q: -1}, {q: 1}, {q: -1}}
	st := openStreams(sched, 2)
	if len(st) != 2 || st[0].senders+st[1].senders != 2 {
		t.Fatalf("streams %+v: want a query and an ingest stream sharing 2 senders", st)
	}
	if got := openStreams(sched[:1], 2); len(got) != 1 || got[0].senders != 2 {
		t.Fatalf("query-only streams %+v: want one stream with 2 senders", got)
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	qs := []query{{text: "q0"}, {text: "q1"}}
	check := checker(qs, []answer{{rows: 2, keys: []string{"a", "b"}}, {rows: 3}})
	ok := &queryResponse{RowCount: 2, Rows: make([]map[string]rowCell, 2), RowKeys: []string{"b", "a"}}
	if err := check(0, ok); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, resp := range map[string]*queryResponse{
		"row count": {RowCount: 3, Rows: make([]map[string]rowCell, 3), RowKeys: []string{"a", "b", "c"}},
		"row keys":  {RowCount: 2, Rows: make([]map[string]rowCell, 2), RowKeys: []string{"a", "c"}},
		"timed out": {RowCount: 2, Rows: make([]map[string]rowCell, 2), RowKeys: []string{"a", "b"}, TimedOut: true},
	} {
		if err := check(0, resp); err == nil || !strings.Contains(err.Error(), "q0") {
			t.Errorf("%s: wrong answer accepted (err %v)", name, err)
		}
	}
	// A LIMIT-cut answer is checked by its row count only.
	if err := check(1, &queryResponse{RowCount: 3, Rows: make([]map[string]rowCell, 3), RowKeys: []string{"x", "y", "z"}}); err != nil {
		t.Errorf("LIMIT-cut answer rejected: %v", err)
	}
}
