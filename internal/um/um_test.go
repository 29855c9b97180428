package um

import (
	"testing"

	"buddy/internal/workloads"
)

func specOf(t *testing.T, name string) (s workloads.Benchmark) {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNoOversubscriptionIsBaseline(t *testing.T) {
	b := specOf(t, "356.sp")
	r := RunOversubscription(b.Trace, uint64(b.Footprint/64), 0)
	if r.RelativeRuntime != 1 {
		t.Errorf("fully resident run = %.3fx, want 1x", r.RelativeRuntime)
	}
	if r.Faults != 0 {
		t.Errorf("fully resident run faulted %d times", r.Faults)
	}
}

func TestOversubscriptionMonotone(t *testing.T) {
	b := specOf(t, "360.ilbdc")
	last := 0.0
	for _, o := range []float64{0, 0.1, 0.2, 0.4} {
		r := RunOversubscription(b.Trace, uint64(b.Footprint/64), o)
		if r.RelativeRuntime < last {
			t.Errorf("runtime decreased at oversubscription %.1f", o)
		}
		last = r.RelativeRuntime
	}
	if last < 5 {
		t.Errorf("irregular workload at 40%% oversubscription should be painful, got %.1fx", last)
	}
}

func TestIrregularWorseThanStreaming(t *testing.T) {
	ilbdc := specOf(t, "360.ilbdc")
	sp := specOf(t, "356.sp")
	ri := RunOversubscription(ilbdc.Trace, uint64(ilbdc.Footprint/64), 0.3)
	rs := RunOversubscription(sp.Trace, uint64(sp.Footprint/64), 0.3)
	if ri.RelativeRuntime <= rs.RelativeRuntime {
		t.Errorf("irregular ilbdc (%.1fx) should fault more than streaming sp (%.1fx)",
			ri.RelativeRuntime, rs.RelativeRuntime)
	}
}

func TestPinnedMode(t *testing.T) {
	b := specOf(t, "356.sp")
	r := RunPinned(b.Trace, uint64(b.Footprint/64))
	if r.RelativeRuntime <= 1 {
		t.Errorf("pinned host memory must cost more than local, got %.2fx", r.RelativeRuntime)
	}
	if r.RelativeRuntime > 30 {
		t.Errorf("pinned mode should be bounded (no faults), got %.2fx", r.RelativeRuntime)
	}
}

func TestSweepShape(t *testing.T) {
	b := specOf(t, "351.palm")
	points, pinned := Sweep(b.Trace, uint64(b.Footprint/64))
	if len(points) != 6 {
		t.Fatalf("Fig. 12 sweep has 6 points, got %d", len(points))
	}
	if pinned.RelativeRuntime <= 1 {
		t.Error("pinned result missing")
	}
}

func TestClockPool(t *testing.T) {
	p := newClockPool(2)
	if p.touch(1) {
		t.Error("cold touch should miss")
	}
	if !p.touch(1) {
		t.Error("warm touch should hit")
	}
	p.touch(2)
	p.touch(3) // evicts FIFO victim (1)
	if p.touch(1) {
		t.Error("evicted page should miss")
	}
}
