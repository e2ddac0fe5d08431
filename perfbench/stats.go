package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and may hold
// +Inf. It returns 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latenciesMS returns the end-to-end latency of every record of the given
// kind in milliseconds, +Inf for a request without a checked answer, so
// failures miss every latency limit.
func latenciesMS(recs []record, ingest bool) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		if (r.q < 0) != ingest {
			continue
		}
		if !r.ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(r.latency()))
	}
	return out
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
