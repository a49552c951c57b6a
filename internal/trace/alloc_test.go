//go:build !race

package trace

// Allocation pin for the sampled-out path: when a request loses the
// sampling draw (or tracing is disabled entirely), starting and ending
// spans must be free — no context allocation, no span storage, nothing.
// This is the contract that lets the read path keep its tracing
// call sites unconditionally. The pins build only without -race, whose
// instrumentation allocates; CI's alloc job runs them race-free.

import (
	"context"
	"testing"
	"time"
)

func TestSampledOutAllocFree(t *testing.T) {
	// An untraced context: FromContext finds nothing, every span is the
	// shared no-op.
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		c2, sp := StartSpan(ctx, StageCacheCompute)
		leaf := StartLeaf(c2, StageCacheGet)
		leaf.End()
		sp.EndErr(nil)
	})
	if allocs != 0 {
		t.Fatalf("sampled-out span path: %.2f allocs/run, want 0", allocs)
	}
}

func TestSamplerDrawAllocFree(t *testing.T) {
	// A tracer whose draw loses on every call but the Nth: the losing
	// draws themselves must not allocate.
	tc := NewTracer(Config{SampleEvery: 1 << 30})
	allocs := testing.AllocsPerRun(500, func() {
		if tc.Sample() {
			t.Fatal("draw unexpectedly won")
		}
	})
	if allocs != 0 {
		t.Fatalf("losing sampler draw: %.2f allocs/run, want 0", allocs)
	}
}

func TestObserveAllocFree(t *testing.T) {
	tc := NewTracer(Config{})
	allocs := testing.AllocsPerRun(500, func() {
		tc.Observe(StageKVFlush, 5*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("background-stage observe: %.2f allocs/run, want 0", allocs)
	}
}
