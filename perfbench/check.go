package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"ctpquery"
	"ctpquery/internal/eql"
)

// answer is a query's expected result, from the reference DB.
type answer struct {
	rows int
	// keys are the sorted row keys; nil when the answer is cut by a
	// LIMIT, where only the row count is fixed.
	keys []string
}

// expectAnswers runs every query on a separate, cache-less DB over its
// own copy of the graph, with sequential MoLESP (the DB defaults).
func expectAnswers(ctx context.Context, snapshot []byte, qs []query) ([]answer, error) {
	g, err := ctpquery.LoadSnapshot(bytes.NewReader(snapshot))
	if err != nil {
		return nil, err
	}
	ref, err := ctpquery.Open(g, nil)
	if err != nil {
		return nil, err
	}
	out := make([]answer, len(qs))
	for i, q := range qs {
		res, err := ref.Query(ctx, q.text)
		if err != nil {
			return nil, fmt.Errorf("reference run of %q: %w", q.text, err)
		}
		if res.TimedOut() {
			return nil, fmt.Errorf("reference run of %q timed out", q.text)
		}
		out[i].rows = res.Len()
		parsed, err := eql.Parse(q.text)
		if err != nil {
			return nil, err
		}
		if res.Truncated() || (parsed.Limit > 0 && res.Len() >= parsed.Limit) {
			continue
		}
		keys := make([]string, res.Len())
		for r := range keys {
			keys[r] = res.MergeKey(r)
		}
		sort.Strings(keys)
		out[i].keys = keys
	}
	return out, nil
}

// checker compares served answers with the expected ones.
func checker(qs []query, want []answer) checkFunc {
	return func(q int, resp *queryResponse) error {
		w := want[q]
		switch {
		case resp.TimedOut:
			return fmt.Errorf("%q: timed out", qs[q].text)
		case resp.RowCount != w.rows:
			return fmt.Errorf("%q: %d rows, want %d", qs[q].text, resp.RowCount, w.rows)
		case len(resp.Rows) != len(resp.RowKeys) || len(resp.Rows) > resp.RowCount:
			return fmt.Errorf("%q: %d rows and %d row keys for row_count %d", qs[q].text, len(resp.Rows), len(resp.RowKeys), resp.RowCount)
		case w.keys == nil:
			return nil
		case resp.RowsTruncated:
			return fmt.Errorf("%q: %d rows exceed the row cap; the answer cannot be checked", qs[q].text, resp.RowCount)
		}
		got := append([]string(nil), resp.RowKeys...)
		sort.Strings(got)
		for i := range got {
			if got[i] != w.keys[i] {
				return fmt.Errorf("%q: row %d differs from the reference answer", qs[q].text, i)
			}
		}
		return nil
	}
}
