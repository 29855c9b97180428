package pool

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buddy/internal/core"
	"buddy/internal/race"
)

// TestRebalanceScanZeroAlloc pins the watcher's steady-state cost: the
// pressure scan a serving process may run every few microseconds must not
// allocate.
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
	p, err := New(devices, Config{})
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
// lands on shard 0, the skew reaches the threshold, and the rebalanceStreak-th
// consecutive Rebalance live-migrates the allocation to the idle shard —
// not one call earlier.
func TestRebalancerMovesHotAllocation(t *testing.T) {
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}
	p, err := New(devices, Config{Placement: Explicit(0)})
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
	for call := 1; call <= rebalanceStreak; call++ {
		moved, err := p.Rebalance()
		if err != nil {
			t.Fatalf("Rebalance call %d: %v", call, err)
		}
		if last := call == rebalanceStreak; moved != last {
			t.Fatalf("Rebalance call %d of %d: moved = %v, want %v", call, rebalanceStreak, moved, last)
		}
	}
	if h.Shard() != 1 {
		t.Fatalf("hot allocation on shard %d after the streak, want 1", h.Shard())
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rebalancer migration corrupted data")
	}
}

// poolGoroutines counts the goroutines, the caller's aside, with pool code
// on their stacks.
func poolGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "buddy/internal/pool.") {
			count++
		}
	}
	return count
}

// TestRebalanceRacesControlPlane runs Rebalance callers against a mover, a
// drain/reopen cycler and a verifying reader, then closes the pool under
// the Rebalance callers. Every read returns the bytes written, Rebalance
// after Close wraps ErrClosed, and once Close has returned no goroutine the
// pool started is left.
func TestRebalanceRacesControlPlane(t *testing.T) {
	before := poolGoroutines()
	devices := make([]*core.Device, 3)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 64 << 10})
	}
	p, err := New(devices, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const regions = 6
	handles := make([]*Handle, regions)
	data := make([][]byte, regions)
	for i := range handles {
		data[i] = make([]byte, 16<<10)
		pattern(data[i], byte(i))
		if handles[i], err = p.Malloc(fmt.Sprintf("r%d", i), int64(len(data[i])), core.Target1x); err != nil {
			t.Fatal(err)
		}
		if _, err := handles[i].WriteAt(data[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	// A racing control-plane call may lose its destination to another:
	// refused as draining, or full.
	benign := func(err error) bool {
		return err == nil || errors.Is(err, ErrShardDraining) || errors.Is(err, core.ErrOutOfMemory)
	}

	var workers, rebalancers sync.WaitGroup
	var moves atomic.Int64
	for range 3 {
		rebalancers.Add(1)
		go func() {
			defer rebalancers.Done()
			for {
				ok, err := p.Rebalance()
				if errors.Is(err, ErrClosed) {
					return
				}
				if !benign(err) {
					t.Errorf("Rebalance: %v", err)
					return
				}
				if ok {
					moves.Add(1)
				}
			}
		}()
	}
	workers.Add(3)
	go func() { // mover
		defer workers.Done()
		for k := 0; k < 200; k++ {
			if err := p.MigrateHandle(handles[k%regions], k%len(devices)); !benign(err) {
				t.Errorf("MigrateHandle: %v", err)
				return
			}
		}
	}()
	go func() { // drain/reopen cycler
		defer workers.Done()
		for k := 0; k < 30; k++ {
			shard := k % len(devices)
			if err := p.Drain(shard); err != nil && !errors.Is(err, core.ErrOutOfMemory) {
				t.Errorf("Drain shard %d: %v", shard, err)
			}
			if err := p.Reopen(shard); err != nil {
				t.Errorf("Reopen shard %d: %v", shard, err)
				return
			}
		}
	}()
	go func() { // reader
		defer workers.Done()
		got := make([]byte, 16<<10)
		for k := 0; k < 200; k++ {
			i := k % regions
			if _, err := handles[i].ReadAt(got, 0); err != nil {
				t.Errorf("ReadAt r%d: %v", i, err)
				return
			}
			if !bytes.Equal(got, data[i]) {
				t.Errorf("r%d read back wrong bytes mid-race", i)
				return
			}
		}
	}()
	workers.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rebalancers.Wait()
	if _, err := p.Rebalance(); !errors.Is(err, ErrClosed) {
		t.Errorf("Rebalance after Close: err = %v, want ErrClosed", err)
	}
	got := make([]byte, 16<<10)
	for i, h := range handles {
		if _, err := h.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[i]) {
			t.Errorf("r%d lost bytes across the race", i)
		}
	}
	// A worker that has signalled Close may not have returned yet.
	for deadline := time.Now().Add(5 * time.Second); poolGoroutines() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running pool code after Close, %d before New", poolGoroutines(), before)
		}
		runtime.Gosched()
	}
	t.Logf("Rebalance moved %d allocations", moves.Load())
}
