package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"buddy/internal/gen"
	"buddy/internal/race"
)

// withWideGOMAXPROCS forces a multi-worker span pool on single-CPU test
// machines: devices built inside f see GOMAXPROCS(4) and therefore spawn
// background span workers.
func withWideGOMAXPROCS(t *testing.T, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	f()
}

// TestSpanPoolParallelRoundTrip drives the persistent span-worker pool with
// real background workers: spans large enough to be partitioned across the
// pool must round-trip exactly, concurrently from several goroutines.
func TestSpanPoolParallelRoundTrip(t *testing.T) {
	withWideGOMAXPROCS(t, func() {
		d := NewDevice(Config{DeviceBytes: 64 << 20})
		if d.span.chunks == nil {
			t.Fatal("span pool spawned no workers at GOMAXPROCS 4")
		}
		const span = 8*bulkGrainEntries + 5
		const writers = 4
		a, err := d.Malloc("wide", int64(writers*span*EntryBytes), Target2x)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				data := make([]byte, span*EntryBytes)
				gen.SparseFP16{ZeroFrac: 0.5}.Fill(data, gen.NewRNG(uint64(w+1), 3))
				for iter := 0; iter < 3; iter++ {
					if err := a.WriteEntries(w*span, data); err != nil {
						t.Error(err)
						return
					}
					got := make([]byte, len(data))
					if err := a.ReadEntries(w*span, got); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, data) {
						t.Errorf("writer %d iter %d: span corrupted", w, iter)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDeviceCloseRetiresSpanWorkers pins the shutdown ordering: Close stops
// the background workers (in-flight spans finish first), later batch I/O
// still works — it just runs inline — and Close is idempotent.
func TestDeviceCloseRetiresSpanWorkers(t *testing.T) {
	withWideGOMAXPROCS(t, func() {
		d := NewDevice(Config{DeviceBytes: 16 << 20})
		a, err := d.Malloc("close", int64(4*bulkGrainEntries*EntryBytes), Target1x)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4*bulkGrainEntries*EntryBytes)
		gen.Ramp{Start: 1, Step: 5}.Fill(data, gen.NewRNG(8, 1))
		if err := a.WriteEntries(0, data); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err) // idempotent
		}
		// The device stays fully usable after Close; spans run inline.
		got := make([]byte, len(data))
		if err := a.ReadEntries(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("post-Close read-back mismatch")
		}
		if err := a.WriteEntries(0, data[:bulkGrainEntries*EntryBytes]); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSpanPoolErrorPropagation corrupts one stored stream inside a large
// span and checks the first error a partitioned batch read produces comes
// back through the pool's atomic first-error slot.
func TestSpanPoolErrorPropagation(t *testing.T) {
	withWideGOMAXPROCS(t, func() {
		d := NewDevice(Config{DeviceBytes: 64 << 20})
		const span = 6 * bulkGrainEntries
		a, err := d.Malloc("err", int64(span*EntryBytes), Target1x)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, span*EntryBytes)
		gen.Random{}.Fill(data, gen.NewRNG(5, 2))
		if err := a.WriteEntries(0, data); err != nil {
			t.Fatal(err)
		}
		// Truncate one stored stream mid-span.
		corruptStream(a, 3*bulkGrainEntries, len(a.store.get(3*bulkGrainEntries))/2)
		got := make([]byte, len(data))
		if err := a.ReadEntries(0, got); err == nil {
			t.Fatal("want decode error from partitioned batch read")
		}
	})
}

// TestSpanDispatchSteadyStateZeroAlloc pins the partitioned batch path at
// zero allocations: a WriteEntries wide enough to be split across the span
// workers checks its job out of a pool and hands chunks over a channel, and
// spanJob.run must not heap-allocate its error slot per chunk.
func TestSpanDispatchSteadyStateZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("race instrumentation allocates (sync.Pool drops items under -race)")
	}
	withWideGOMAXPROCS(t, func() {
		d := NewDevice(Config{DeviceBytes: 16 << 20})
		defer d.Close()
		const span = 4 * bulkGrainEntries
		a, err := d.Malloc("steady", int64(span*EntryBytes), Target2x)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, span*EntryBytes)
		gen.SparseFP16{ZeroFrac: 0.5}.Fill(data, gen.NewRNG(4, 1))
		// First touch takes the entries' stream-store slots; not measured.
		if err := a.WriteEntries(0, data); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := a.WriteEntries(0, data); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("steady-state partitioned WriteEntries allocates %.1f/op, want 0", n)
		}
	})
}

// TestSpanRunsRaceDeviceClose keeps partitioned span runs arriving from
// several goroutines while Device.Close retires the workers: runs that
// started before the close finish on the pool, later ones run inline, every
// span round-trips, and (under -race) the close barrier is not a WaitGroup
// whose counter leaves zero while Close waits on it.
func TestSpanRunsRaceDeviceClose(t *testing.T) {
	withWideGOMAXPROCS(t, func() {
		const span = 4 * bulkGrainEntries
		const runners = 4
		data := make([]byte, span*EntryBytes)
		gen.SparseFP16{ZeroFrac: 0.5}.Fill(data, gen.NewRNG(6, 1))
		for round := 0; round < 8; round++ {
			d := NewDevice(Config{DeviceBytes: 16 << 20})
			a, err := d.Malloc("racing", int64(runners*span*EntryBytes), Target2x)
			if err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{}, runners)
			var wg sync.WaitGroup
			for r := 0; r < runners; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					got := make([]byte, len(data))
					for i := 0; i < 12; i++ {
						if err := a.WriteEntries(r*span, data); err != nil {
							t.Error(err)
							return
						}
						if i == 0 {
							started <- struct{}{}
						}
						if err := a.ReadEntries(r*span, got); err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, data) {
							t.Errorf("round %d runner %d: span corrupted across Close", round, r)
							return
						}
					}
				}(r)
			}
			<-started // at least one run is in flight or done; the rest keep coming
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
		}
	})
}
