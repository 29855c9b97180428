package pool

import (
	"testing"

	"buddy/internal/benchgate"
	"buddy/internal/core"
	"buddy/internal/race"
)

// TestGateCatchesDepooledFuture demonstrates the allocs/op bench-gate end to
// end, mirroring benchgate's TestGateCatchesSlowedCodec: measure the real
// submit→complete path, pin it at its true allocation count (zero), then
// measure a submit path that allocates per operation — a fresh payload
// buffer per call, what a de-pooled future would cost — and require
// the comparator to fail. This is the in-tree proof that `make bench-gate`
// rejects per-op garbage on the serving path.
func TestGateCatchesDepooledFuture(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	p := newAsyncPool(t, 1, 1, 8)
	h, err := p.Malloc("gate", 64*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, core.EntryBytes)
	pattern(buf, 5)
	submit := func() {
		if _, err := p.SubmitWrite(h, buf, 0).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		submit() // warm the pools and the stream store
	}

	healthy := testing.AllocsPerRun(100, submit)
	base := benchgate.Baseline{
		Tolerance:   1.3,
		AllocsPerOp: map[string]float64{"SubmitWrite": healthy},
	}
	if healthy != 0 {
		t.Fatalf("healthy submit path allocates %.1f/op, want 0", healthy)
	}
	if vs := benchgate.Compare(base, benchgate.Results{
		AllocsPerOp: map[string]float64{"SubmitWrite": healthy},
	}); len(vs) != 0 {
		t.Fatalf("healthy path failed its own gate: %v", vs)
	}

	// The regression the 0 pin exists to catch: a submit path that allocates
	// on every operation.
	allocating := testing.AllocsPerRun(100, func() {
		buf = append([]byte(nil), buf...)
		submit()
	})
	if allocating == 0 {
		t.Fatal("allocating path reports 0 allocs/op; the measurement is broken")
	}
	vs := benchgate.Compare(base, benchgate.Results{
		AllocsPerOp: map[string]float64{"SubmitWrite": allocating},
	})
	if len(vs) != 1 {
		t.Fatalf("allocating path (%.1f allocs/op vs pinned %.1f) passed the gate",
			allocating, healthy)
	}
	t.Logf("gate caught the allocating path: %s", vs[0])
}
