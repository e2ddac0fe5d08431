package main

import (
	"math"
	"runtime/metrics"
	"time"
)

// Rates and latencies are computed once per window of the measured
// phase and reported as the median over windows, so a burst of outside
// interference on a shared machine moves one window rather than the
// result. An open loop cuts the phase into openWindow-long windows; the
// closed loop into windows of closedWindowCycles whole cycles of its
// request sequence, so every window carries the same request mix.
const (
	openWindow         = 5 * time.Second
	closedWindowCycles = 2
	// minP99Samples is the smallest per-window sample count for which a
	// window's p99 has ten samples beyond it; with fewer, p99 is taken
	// over the whole phase.
	minP99Samples = 1000
)

// windowStats are the end-to-end figures of one window.
type windowStats struct {
	qps, p50, p99 float64
	samples       int // query requests due in the window
}

// windowed computes per-window figures between consecutive bounds
// (offsets from the load generator's base): correct answers completed per second,
// and the latency percentiles of the queries due in the window.
func windowed(recs []record, bounds []time.Duration) []windowStats {
	var out []windowStats
	for i := 0; i+1 < len(bounds); i++ {
		from, to := bounds[i], bounds[i+1]
		var lat []float64
		var okQ int
		for j := range recs {
			r := &recs[j]
			if r.q < 0 {
				continue
			}
			if r.ok && r.decoded >= from && r.decoded < to {
				okQ++
			}
			if r.due >= from && r.due < to {
				if r.ok {
					lat = append(lat, ms(r.latency()))
				} else {
					lat = append(lat, math.Inf(1))
				}
			}
		}
		out = append(out, windowStats{
			qps:     float64(okQ) / (to - from).Seconds(),
			p50:     median(lat),
			p99:     quantile(lat, 0.99),
			samples: len(lat),
		})
	}
	return out
}

// heapSampler reads the live heap every heapEvery until stopped.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	live  []float64 // bytes marked live by the latest GC cycle
}

const heapEvery = 250 * time.Millisecond

func startHeapSampler() *heapSampler {
	s := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				s.live = append(s.live, float64(sample[0].Value.Uint64()))
			}
		}
	}()
	return s
}

// stop ends sampling and returns the readings once the sampler goroutine
// has exited.
func (s *heapSampler) stop() []float64 {
	close(s.stopc)
	<-s.done
	return s.live
}
