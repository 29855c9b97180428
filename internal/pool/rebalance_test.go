package pool

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"buddy/internal/core"
	"buddy/internal/race"
)

// TestRebalanceScanZeroAlloc pins the watcher's steady-state cost: the
// pressure scan that runs on every rebalancer tick inside serving processes
// must not allocate.
func TestRebalanceScanZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	devices := make([]*core.Device, 4)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 64 << 10})
	}
	// A long interval arms the rebalancer state without letting the
	// supervisor tick during the measurement.
	p, err := New(devices, Config{RebalanceInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	if _, err := p.Malloc("load", 16<<10, core.Target2x); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		p.rebalanceScan()
	}); a != 0 {
		t.Errorf("rebalanceScan allocates %.1f/op, want 0", a)
	}
}

// TestRebalancerMovesHotAllocation drives the watcher end to end: all load
// lands on shard 0, the skew reaches the threshold, and the supervisor
// live-migrates an allocation to the idle shard without anyone asking.
func TestRebalancerMovesHotAllocation(t *testing.T) {
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}
	p, err := New(devices, Config{
		Placement:         Explicit(0),
		RebalanceInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	want := make([]byte, 32<<10)
	pattern(want, 7)
	h, err := p.Malloc("hot", int64(len(want)), core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for h.Shard() == 0 {
		select {
		case <-deadline:
			t.Fatal("rebalancer never moved the hot allocation")
		case <-time.After(time.Millisecond):
		}
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rebalancer migration corrupted data")
	}
}

// TestSupervisorSurvivesPanic pins the restart idiom: a panicking user
// OnRecover callback must not kill the maintenance goroutine — the next
// failure still auto-recovers.
func TestSupervisorSurvivesPanic(t *testing.T) {
	fi := NewFailureInjector()
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}
	var calls atomic.Int64
	second := make(chan RecoveryStats, 1)
	p, err := New(devices, Config{
		Injector:    fi,
		AutoRecover: true,
		OnRecover: func(rs RecoveryStats) {
			if calls.Add(1) == 1 {
				panic("instrumentation bug")
			}
			second <- rs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	if err := fi.Kill(0); err != nil {
		t.Fatal(err)
	}
	// The first recovery completes before its callback panics; wait until
	// the shard is healthy again, then fail the other one.
	deadline := time.After(5 * time.Second)
	for p.Stats().Shards[0].Failed {
		select {
		case <-deadline:
			t.Fatal("first auto-recovery never completed")
		case <-time.After(time.Millisecond):
		}
	}
	if err := fi.Kill(1); err != nil {
		t.Fatal(err)
	}
	select {
	case rs := <-second:
		if rs.Shard != 1 {
			t.Errorf("second recovery reported shard %d, want 1", rs.Shard)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("supervisor died with the panicking callback")
	}
}
