package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"buddy/internal/gen"
)

// TestConcurrentDeviceStress drives a device from many goroutines at once —
// parallel Mallocs, entry reads/writes, byte-addressed I/O and stats reads —
// and then verifies every allocation's contents. Run under -race this is
// the concurrency proof for the driver redesign.
func TestConcurrentDeviceStress(t *testing.T) {
	d := newTestDevice(64 << 20)
	const workers = 8
	const entriesPer = 256

	var wg sync.WaitGroup
	allocs := make([]*Allocation, workers)
	want := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, err := d.Malloc(fmt.Sprintf("w%d", w), entriesPer*EntryBytes, Target2x)
			if err != nil {
				t.Error(err)
				return
			}
			allocs[w] = a
			data := make([]byte, a.Size())
			r := gen.NewRNG(uint64(w), 1)
			gens := []gen.Generator{
				gen.Zeros{}, gen.Ramp{Step: 3},
				gen.Noisy64{NoiseBits: 8, HiStep: 1}, gen.Random{},
			}
			for e := 0; e < entriesPer; e++ {
				gens[e%len(gens)].Fill(data[e*EntryBytes:(e+1)*EntryBytes], r)
			}
			want[w] = data

			// Interleave entry-granular and byte-granular traffic with
			// concurrent readers and stats polls.
			for e := 0; e < entriesPer; e++ {
				if err := a.WriteEntry(e, data[e*EntryBytes:(e+1)*EntryBytes]); err != nil {
					t.Error(err)
					return
				}
			}
			got := make([]byte, EntryBytes)
			for e := 0; e < entriesPer; e += 3 {
				if err := a.ReadEntry(e, got); err != nil {
					t.Error(err)
					return
				}
			}
			// Unaligned rewrites of this worker's own region.
			for off := int64(13); off+1000 < a.Size(); off += 2048 {
				if _, err := a.WriteAt(data[off:off+1000], off); err != nil {
					t.Error(err)
					return
				}
			}
			buf := make([]byte, 777)
			if _, err := a.ReadAt(buf, 55); err != nil {
				t.Error(err)
				return
			}
			_ = d.Traffic()
			_ = d.CompressionRatio()
			_ = d.Allocations()
			_ = d.MetadataCacheHitRate()
		}(w)
	}
	wg.Wait()

	// Quiescent verification: every worker's region holds its own data.
	for w, a := range allocs {
		if a == nil {
			t.Fatalf("worker %d allocation missing", w)
		}
		got := make([]byte, a.Size())
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[w]) {
			t.Errorf("worker %d: contents corrupted by concurrent traffic", w)
		}
	}

	// Traffic counters must account every operation exactly once.
	tr := d.Traffic()
	if tr.Writes == 0 || tr.Reads == 0 {
		t.Error("traffic counters lost operations")
	}
	// The overflow tier keeps its own ledger beside the device's (it may be
	// shared between devices); the slab's meter is the device's.
	_, overflow := d.Tiers()
	if ot := overflow.Traffic(); ot.WrittenBytes != tr.BuddyWriteBytes {
		t.Errorf("overflow tier wrote %d, device counter says %d", ot.WrittenBytes, tr.BuddyWriteBytes)
	}
}

// TestConcurrentSharedEntryWriters hammers one entry from many writers: the
// committed state must be one of the candidate values, never a torn mix.
func TestConcurrentSharedEntryWriters(t *testing.T) {
	d := newTestDevice(1 << 20)
	a, err := d.Malloc("shared", 4<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	patterns := make([][]byte, writers)
	for w := range patterns {
		patterns[w] = make([]byte, EntryBytes)
		fillPattern(patterns[w], byte(w*31))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := make([]byte, EntryBytes)
			for i := 0; i < 200; i++ {
				if err := a.WriteEntry(7, patterns[w]); err != nil {
					t.Error(err)
					return
				}
				if err := a.ReadEntry(7, got); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := make([]byte, EntryBytes)
	if err := a.ReadEntry(7, got); err != nil {
		t.Fatal(err)
	}
	for _, p := range patterns {
		if bytes.Equal(got, p) {
			return
		}
	}
	t.Error("final entry state matches no writer: torn write")
}
