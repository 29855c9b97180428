package core

import (
	"bytes"
	"sync"
	"testing"

	"buddy/internal/gen"
)

func newBulkDevice(t testing.TB, deviceBytes int64) *Device {
	t.Helper()
	return NewDevice(Config{DeviceBytes: deviceBytes})
}

// TestWriteEntriesReadEntriesRoundTrip pushes a multi-grain span through the
// batch primitives and reads it back both in one batch and entry by entry.
func TestWriteEntriesReadEntriesRoundTrip(t *testing.T) {
	d := newBulkDevice(t, 64<<20)
	const entries = 3*bulkGrainEntries + 17 // force parallel span + remainder
	a, err := d.Malloc("bulk", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, entries*EntryBytes)
	gen.Noisy32{NoiseBits: 9, SmoothStep: 3}.Fill(data, gen.NewRNG(21, 1))
	if err := a.WriteEntries(0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.ReadEntries(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("batch round-trip mismatch")
	}
	single := make([]byte, EntryBytes)
	for i := 0; i < entries; i += 37 {
		if err := a.ReadEntries(i, single); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, data[i*EntryBytes:(i+1)*EntryBytes]) {
			t.Fatalf("entry %d differs from batch write", i)
		}
	}
}

// TestBatchOffsetAndErrors covers interior spans and the argument contract.
func TestBatchOffsetAndErrors(t *testing.T) {
	d := newBulkDevice(t, 16<<20)
	a, err := d.Malloc("bulk", 256*EntryBytes, Target1x)
	if err != nil {
		t.Fatal(err)
	}
	span := make([]byte, 40*EntryBytes)
	gen.Ramp{Start: 5, Step: 9}.Fill(span, gen.NewRNG(4, 1))
	if err := a.WriteEntries(100, span); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(span))
	if err := a.ReadEntries(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, span) {
		t.Fatal("interior span mismatch")
	}
	// Entries outside the span stay zero (never written).
	if err := a.ReadEntries(0, got[:EntryBytes]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:EntryBytes], make([]byte, EntryBytes)) {
		t.Fatal("untouched entry not zero")
	}

	if err := a.WriteEntries(0, make([]byte, EntryBytes+1)); err == nil {
		t.Fatal("want error for non-multiple length")
	}
	if err := a.WriteEntries(250, make([]byte, 10*EntryBytes)); err == nil {
		t.Fatal("want error for range past EntryCount")
	}
	if err := a.ReadEntries(-1, make([]byte, EntryBytes)); err == nil {
		t.Fatal("want error for negative start")
	}
	if err := a.WriteEntries(0, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestBulkParallelConsistency hammers the parallel bulk path from many
// goroutines — batch writers on disjoint spans, byte-addressed writers on a
// shared span, and readers throughout — and verifies every disjoint span
// afterwards. Run with -race this is the data-race proof for the fan-out.
func TestBulkParallelConsistency(t *testing.T) {
	d := newBulkDevice(t, 64<<20)
	const (
		writers = 4
		span    = 2*bulkGrainEntries + 11
	)
	a, err := d.Malloc("race", int64(writers*span*EntryBytes), Target2x)
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([][]byte, writers)
	for w := range patterns {
		patterns[w] = make([]byte, span*EntryBytes)
		gen.Noisy64{NoiseBits: 10, HiStep: 1}.Fill(patterns[w], gen.NewRNG(uint64(w+1), 7))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				if err := a.WriteEntries(w*span, patterns[w]); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, span*EntryBytes)
				if err := a.ReadEntries(w*span, got); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, patterns[w]) {
					t.Errorf("writer %d iter %d: span corrupted", w, iter)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 1000)
			off := int64(w*span*EntryBytes) + 13
			for iter := 0; iter < 5; iter++ {
				if _, err := a.ReadAt(buf, off); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		got := make([]byte, span*EntryBytes)
		if err := a.ReadEntries(w*span, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, patterns[w]) {
			t.Fatalf("final state of span %d corrupted", w)
		}
	}
}

// leastAllocs warms f's pools and returns the least of up to five
// AllocsPerRun readings: under -race sync.Pool drops one Put in four, so a
// single reading of a zero-alloc path comes to a whole allocation per run
// about one time in six; a path that really allocates does so every time.
func leastAllocs(f func()) float64 {
	for k := 0; k < 8; k++ {
		f()
	}
	least := testing.AllocsPerRun(100, f)
	for k := 0; k < 4 && least != 0; k++ {
		least = min(least, testing.AllocsPerRun(100, f))
	}
	return least
}

// TestEntryPathSteadyStateZeroAlloc proves the acceptance criterion: after
// first touch, single-entry WriteEntries and ReadEntries allocate nothing —
// the codec runs in pooled scratch and a rewrite within a slot class is a
// copy in place.
func TestEntryPathSteadyStateZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	d := newBulkDevice(t, 16<<20)
	a, err := d.Malloc("steady", 64*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	entry := make([]byte, EntryBytes)
	gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(entry, gen.NewRNG(2, 1))
	dst := make([]byte, EntryBytes)
	// First touch takes the entry's stream-store slot; not measured.
	if err := a.WriteEntries(0, entry); err != nil {
		t.Fatal(err)
	}
	if n := leastAllocs(func() {
		if err := a.WriteEntries(0, entry); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state single-entry WriteEntries allocates %.1f/op, want 0", n)
	}
	if n := leastAllocs(func() {
		if err := a.ReadEntries(0, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state single-entry ReadEntries allocates %.1f/op, want 0", n)
	}
	if !bytes.Equal(dst, entry) {
		t.Fatal("round-trip mismatch")
	}
}

// TestReadEntryDecodeErrorPropagates corrupts a stored stream in place and
// checks the decode error surfaces through a single-entry ReadEntries
// without an intermediate copy path swallowing it.
func TestReadEntryDecodeErrorPropagates(t *testing.T) {
	d := newBulkDevice(t, 16<<20)
	a, err := d.Malloc("corrupt", 4*EntryBytes, Target1x)
	if err != nil {
		t.Fatal(err)
	}
	entry := make([]byte, EntryBytes)
	gen.Random{}.Fill(entry, gen.NewRNG(9, 1))
	if err := a.WriteEntries(1, entry); err != nil {
		t.Fatal(err)
	}
	// Reach into the entry table and truncate the stored stream.
	corruptStream(a, 1, len(a.store.get(1))/2)
	dst := make([]byte, EntryBytes)
	if err := a.ReadEntries(1, dst); err == nil {
		t.Fatal("want decode error for truncated stored stream")
	}
}
