package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"buddy/internal/gen"
	"buddy/internal/race"
)

// withWideGOMAXPROCS runs f at GOMAXPROCS 4, so a span of two bulk grains
// or more fans out through par.Run even on a single-CPU test machine.
func withWideGOMAXPROCS(t *testing.T, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	f()
}

// serialSpans runs the rest of t at GOMAXPROCS 1, where par.Run keeps every
// piece on its caller, in order: a span's sub-batches reach the tiers and
// the metadata cache in entry order.
func serialSpans(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSpanPoolParallelRoundTrip fans spans out with real helpers: spans
// large enough to be cut into pieces must round-trip exactly, concurrently
// from several goroutines.
func TestSpanPoolParallelRoundTrip(t *testing.T) {
	withWideGOMAXPROCS(t, func() {
		d := NewDevice(Config{DeviceBytes: 64 << 20})
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

// TestDeviceCloseRetiresSpanWorkers pins what Close leaves: it is
// idempotent, and the device stays fully usable afterwards — fanned-out
// spans still round-trip.
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
		// The device stays fully usable after Close.
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
// span and checks the first error a fanned-out batch read produces comes
// back through the span's atomic first-error slot.
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
// zero allocations: a WriteEntries wide enough to be cut into pieces checks
// its runner out of a pool and hands it to parked helpers over a channel,
// and entrySpan.Do must not heap-allocate its error slot per piece.
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

// TestSpanRunsRaceDeviceClose keeps fanned-out span runs arriving from
// several goroutines, on fresh devices round after round, with a
// Device.Close in the middle of each round: every concurrent span
// round-trips, and (under -race) the helpers' hand-off is race-free.
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

// TestDevicesStartNoGoroutines pins that a device owns no goroutine: building
// eight starts none, and fanning spans out on all of them at GOMAXPROCS 4
// leaves at most three more in the process — par's helpers, shared by every
// device.
func TestDevicesStartNoGoroutines(t *testing.T) {
	withWideGOMAXPROCS(t, func() {
		before := runtime.NumGoroutine()
		devices := make([]*Device, 8)
		for i := range devices {
			devices[i] = NewDevice(Config{DeviceBytes: 16 << 20})
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("building %d devices started %d goroutines", len(devices), n-before)
		}
		const span = 8 * bulkGrainEntries
		data := make([]byte, span*EntryBytes)
		gen.SparseFP16{ZeroFrac: 0.5}.Fill(data, gen.NewRNG(9, 1))
		for _, d := range devices {
			a, err := d.Malloc("fan", int64(len(data)), Target2x)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := a.WriteEntries(0, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := runtime.NumGoroutine(); n > before+3 {
			t.Fatalf("fan-outs over %d devices at GOMAXPROCS 4 left %d goroutines, want at most 3", len(devices), n-before)
		}
	})
}

// TestHostTierSpansKeepEntryOrder pins the host pager's fault count to entry
// order: its residency depends on the order pages are touched in, so
// multi-grain spans written at GOMAXPROCS 4 to a host-tier device must leave
// the tier's traffic, faults included, equal to a twin's written one entry
// at a time.
func TestHostTierSpansKeepEntryOrder(t *testing.T) {
	withWideGOMAXPROCS(t, func() {
		const entries, span = 32 * bulkGrainEntries, 6*bulkGrainEntries + 17
		data := make([]byte, entries*EntryBytes)
		gen.Random{}.Fill(data, gen.NewRNG(12, 1))
		var tiers [2]Backend
		for k := range tiers {
			d := NewDevice(Config{DeviceBytes: 4 << 20, Overflow: NewHostBackend(4<<10, 32<<10)})
			a, err := d.Malloc("host", int64(len(data)), Target4x)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 6; round++ {
				for lo := round * 37; lo+span <= entries; lo += span {
					if k == 1 {
						for i := lo; i < lo+span; i++ {
							if err := a.WriteEntries(i, data[i*EntryBytes:][:EntryBytes]); err != nil {
								t.Fatal(err)
							}
						}
					} else if err := a.WriteEntries(lo, data[lo*EntryBytes:][:span*EntryBytes]); err != nil {
						t.Fatal(err)
					}
				}
			}
			tiers[k] = d.Overflow()
		}
		if spans, singles := tiers[0].Traffic(), tiers[1].Traffic(); spans != singles {
			t.Fatalf("host tier after spans %+v, after single entries %+v", spans, singles)
		}
	})
}
