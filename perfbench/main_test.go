package main

import (
	"context"
	"io"
	"runtime"
	"testing"
	"time"
)

// TestRunReturnsCleanly runs every workload in its smallest configuration,
// traced, and checks that the answers are correct and that run leaves no
// goroutine behind: listeners, connections, samplers and compactions are
// all stopped when it returns.
func TestRunReturnsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	before := runtime.NumGoroutine()
	for _, w := range workloads {
		res, err := run(context.Background(), options{workload: w.name, seed: 1, seconds: 0.5, trace: true, setups: 1}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
