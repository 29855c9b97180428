package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"buddy/internal/gen"
	"buddy/internal/nvlink"
)

// The data path's accounting oracle. WriteEntries/ReadEntries over a span
// and over one entry are passes of one walker, so a span and the same
// entries one call at a time must leave two identical worlds bit-identical:
// Traffic, both tiers' BackendTraffic (pager faults included), link busy
// cycles per direction, the metadata cache's hits and misses, the metadata
// store, every entry's sector count and every stored stream. TestDataPathAccountingPinned holds the same scenario
// against totals captured from the per-kind kernels the walker replaced.

// write stores data at entries [start, start+len/128) of a: as one span, or
// — in the reference world — one single-entry WriteEntries per entry.
func (w *relocWorld) write(a *Allocation, start int, data []byte) error {
	if !w.ref {
		return a.WriteEntries(start, data)
	}
	for k := 0; k < len(data)/EntryBytes; k++ {
		if err := a.WriteEntries(start+k, data[k*EntryBytes:(k+1)*EntryBytes]); err != nil {
			return err
		}
	}
	return nil
}

// read is write's counterpart.
func (w *relocWorld) read(a *Allocation, start int, dst []byte) error {
	if !w.ref {
		return a.ReadEntries(start, dst)
	}
	for k := 0; k < len(dst)/EntryBytes; k++ {
		if err := a.ReadEntries(start+k, dst[k*EntryBytes:(k+1)*EntryBytes]); err != nil {
			return err
		}
	}
	return nil
}

// dataScenario drives one world through a seeded sequence of span writes and
// reads — odd and even starts, lengths from one entry to three sub-batches,
// every shape of relocShapes (all-zero runs included), never-written gaps, a
// Target16x allocation — with a Retarget of one allocation held open at a
// random cut for the second half. It returns what it did and the world's
// state after every step; read-backs are checked against a shadow copy.
func dataScenario(t *testing.T, w *relocWorld, seed uint64) (steps []string, states []relocState) {
	t.Helper()
	note := func(step string) {
		steps = append(steps, step)
		states = append(states, w.state())
	}
	r := gen.NewRNG(seed, 78)
	var shadow [][]byte
	for k, n := 0, 3+r.Intn(3); k < n; k++ {
		entries := 1 + r.Intn(3*spanBatchEntries)
		target := AllRatios[r.Intn(len(AllRatios))]
		if k == 0 {
			target = Target16x
		}
		a, err := w.src.Malloc(fmt.Sprintf("a%d", k), int64(entries)*EntryBytes, target)
		if err != nil {
			t.Fatal(err)
		}
		w.allocs = append(w.allocs, a)
		shadow = append(shadow, make([]byte, entries*EntryBytes))
	}
	const ops = 28
	var held *Allocation
	var heldK int
	var mig *migration
	for op := 0; op < ops; op++ {
		k := r.Intn(len(w.allocs))
		if op == ops/2 {
			// Hold a Retarget open: from here a span over a straddles the
			// cut and resolves its entries' homes in two layouts.
			held, heldK = w.allocs[k], k
			next := AllRatios[(int(held.Target())+1+r.Intn(len(AllRatios)-1))%len(AllRatios)]
			var err error
			if mig, err = held.beginRelayout(w.src, next); err != nil {
				t.Fatal(err)
			}
			cut := r.Intn(held.EntryCount + 1)
			moved := w.migratePart(held, mig, 0, cut)
			note(fmt.Sprintf("half-migrate %s to %s at %d: %d bytes", held.Name, next, cut, moved))
		}
		if held != nil && r.Intn(2) == 0 {
			k = heldK
		}
		a := w.allocs[k]
		start := r.Intn(a.EntryCount)
		cnt := 1 + r.Intn(a.EntryCount-start)
		if r.Intn(3) == 0 {
			cnt = 1 + r.Intn(min(cnt, 5)) // the short spans an rpc client issues
		}
		lo, hi := start*EntryBytes, (start+cnt)*EntryBytes
		if r.Intn(5) < 3 {
			shape := relocShapes[r.Intn(len(relocShapes))]
			data := fillEntries(cnt, []gen.Generator{shape}, r.Uint64())
			if err := w.write(a, start, data); err != nil {
				t.Fatal(err)
			}
			copy(shadow[k][lo:hi], data)
			note(fmt.Sprintf("write %s [%d,%d) %s", a.Name, start, start+cnt, shape.Name()))
			continue
		}
		dst := make([]byte, cnt*EntryBytes)
		if err := w.read(a, start, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, shadow[k][lo:hi]) {
			t.Fatalf("seed %d: read %s [%d,%d) returned the wrong bytes", seed, a.Name, start, start+cnt)
		}
		h := fnv.New64a()
		h.Write(dst)
		note(fmt.Sprintf("read %s [%d,%d) %x", a.Name, start, start+cnt, h.Sum64()))
	}
	moved := w.migratePart(held, mig, 0, held.EntryCount)
	held.commitRelayout(mig)
	note(fmt.Sprintf("finish %s: %d bytes", held.Name, moved))
	for k, a := range w.allocs {
		dst := make([]byte, len(shadow[k]))
		if err := w.read(a, 0, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, shadow[k]) {
			t.Fatalf("seed %d: final read of %s returned the wrong bytes", seed, a.Name)
		}
	}
	note("read everything back")
	return steps, states
}

func TestSpanMatchesSingles(t *testing.T) {
	for _, tier := range oracleTiers {
		t.Run(tier.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				spanSteps, spans := dataScenario(t, newRelocWorld(t, false, tier), seed)
				singleSteps, singles := dataScenario(t, newRelocWorld(t, true, tier), seed)
				if !reflect.DeepEqual(spanSteps, singleSteps) {
					t.Fatalf("seed %d: the two worlds did different things:\n spans   %q\n singles %q", seed, spanSteps, singleSteps)
				}
				for i := range spans {
					if !reflect.DeepEqual(spans[i], singles[i]) {
						t.Fatalf("seed %d after %q: a span and its entries one at a time diverge\n spans   %+v\n singles %+v",
							seed, spanSteps[i], summary(spans[i]), summary(singles[i]))
					}
				}
			}
		})
	}
}

// TestDataPathAccountingPinned runs dataScenario's seed 7 through the span
// API and compares the final totals with literals captured from the same
// scenario on the commit before the data path moved onto the relocation
// walker (da5ca39: writeEntrySpan/readEntrySpan, buddy tier charged per
// entry inside the kernel). "Same accounting as before" is thereby checked
// against the old kernels without keeping them.
func TestDataPathAccountingPinned(t *testing.T) {
	type totals struct {
		Traffic           Traffic
		Primary, Overflow BackendTraffic
		LinkRead, LinkWr  float64
	}
	// The device side is the same under both overflow tiers.
	traffic := Traffic{
		DeviceReadBytes: 34880, DeviceWriteBytes: 55032, BuddyReadBytes: 23104, BuddyWriteBytes: 52512,
		MetadataFillBytes: 1056, MigrationBytes: 12664, Reads: 1830, Writes: 1665, BuddyAccesses: 509,
	}
	slab := BackendTraffic{Loads: 2170, Stores: 1972, ReadBytes: 34880, WrittenBytes: 55032}
	overflow := BackendTraffic{Loads: 183, Stores: 442, ReadBytes: 23104, WrittenBytes: 52512}
	paged := overflow
	paged.Faults, paged.MigratedBytes = 16, 65536
	// Link occupancy is the pinned bytes over the link rate, exactly: the two
	// float literals that stood here (200.23466666666636, 455.10399999999777)
	// were these quotients plus the residue of summing 625 per-access terms
	// in entry order.
	bytesPerCycle := nvlink.New(nvlink.DefaultConfig()).BytesPerCycle()
	linkRead, linkWrite := float64(overflow.ReadBytes)/bytesPerCycle, float64(overflow.WrittenBytes)/bytesPerCycle
	for _, tc := range []struct {
		tier oracleTier
		want totals
	}{
		{oracleTiers[0], totals{traffic, slab, overflow, linkRead, linkWrite}},
		{oracleTiers[1], totals{traffic, slab, paged, 0, 0}},
	} {
		w := newRelocWorld(t, false, tc.tier)
		_, states := dataScenario(t, w, 7)
		s := states[len(states)-1]
		got := totals{s.Traffic[0], s.Primary[0], s.Overflow[0], s.LinkRead[0], s.LinkWrit[0]}
		if got != tc.want {
			t.Errorf("%s: final accounting moved\n got  %#v\n want %#v", tc.tier.name, got, tc.want)
		}
	}
}

// corruptibleSpan runs the rest of t with spans inline, in entry order, and
// builds a device holding one fully written allocation of mixed shapes; it
// returns both with the data.
func corruptibleSpan(t *testing.T, entries int) (*Device, *Allocation, []byte) {
	t.Helper()
	serialSpans(t)
	d := NewDevice(Config{DeviceBytes: 8 << 20})
	a, err := d.Malloc("c", int64(entries)*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := fillEntries(entries, relocShapes, 21)
	if err := a.WriteEntries(0, data); err != nil {
		t.Fatal(err)
	}
	d.ResetTraffic()
	return d, a, data
}

// TestSpanReadDecodeErrorAccounting corrupts one stored stream mid-span — at
// the first, the 33rd and the last entry of a metadata line, and at the first
// entry of the span's second sub-batch, which is mid-line — and checks the
// edge each old read kernel handled on its own: the error names the entry,
// the entries before it are delivered, and exactly the entries up to and
// including the failing one are accounted (counters and metadata-cache
// lookups before decode), no more — the rest of its line is snapshotted under
// the same lock but neither charged, looked up nor delivered.
func TestSpanReadDecodeErrorAccounting(t *testing.T) {
	const entries, start, line = 3 * spanBatchEntries, 1, EntriesPerMetadataLine
	// Each bad entry is 2 mod 5 and so holds relocShapes[2], gen.Random: a raw
	// stream, so half of one cannot decode. The sub-batches start at 1, 257
	// and 513.
	for _, bad := range []int{8 * line, 5*line + 32, 6*line + 63, start + spanBatchEntries} {
		d, a, data := corruptibleSpan(t, entries)
		corruptStream(a, bad, len(a.store.get(bad))/2)

		dst := make([]byte, (entries-start)*EntryBytes)
		err := a.ReadEntries(start, dst)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("entry %d of c", bad)) {
			t.Fatalf("corrupt entry %d: err = %v, want a decode error naming it", bad, err)
		}
		good := (bad - start) * EntryBytes
		if !bytes.Equal(dst[:good], data[start*EntryBytes:bad*EntryBytes]) {
			t.Errorf("corrupt entry %d: the entries before it were not delivered", bad)
		}

		// The twin reads [start, bad] off intact streams: the same accesses.
		twin, ta, _ := corruptibleSpan(t, entries)
		if err := ta.ReadEntries(start, make([]byte, (bad+1-start)*EntryBytes)); err != nil {
			t.Fatal(err)
		}
		if got, want := d.Traffic(), twin.Traffic(); got != want || got.Reads != uint64(bad+1-start) {
			t.Errorf("corrupt entry %d: Traffic %+v, want %+v with %d reads", bad, got, want, bad+1-start)
		}
		if got, want := d.slab.Traffic(), twin.slab.Traffic(); got != want {
			t.Errorf("corrupt entry %d: slab traffic %+v, want %+v", bad, got, want)
		}
		if got, want := d.overflow.Traffic(), twin.overflow.Traffic(); got != want || got.Loads == 0 {
			t.Errorf("corrupt entry %d: carve-out traffic %+v, want %+v (non-zero)", bad, got, want)
		}
		if gh, gm := metaLookups(d); gh+gm != uint64(bad+1-start) {
			t.Errorf("corrupt entry %d: %d metadata-cache lookups, want %d", bad, gh+gm, bad+1-start)
		} else if wh, wm := metaLookups(twin); gh != wh || gm != wm {
			t.Errorf("corrupt entry %d: metadata cache %d hits %d misses, want %d and %d", bad, gh, gm, wh, wm)
		}
	}
}

// TestSpanOverUnalignedRegion runs spans over an allocation whose region
// starts two entries into a metadata line of the device's table — a 2-entry
// allocation took the first two — so each of its lines is looked up in two
// lines of the metadata cache, and holds them to the same entries one at a
// time: fills, hits and misses, with everything else relocState compares.
func TestSpanOverUnalignedRegion(t *testing.T) {
	const entries = 3*EntriesPerMetadataLine + 5
	data := fillEntries(entries, relocShapes, 41)
	var states [2][]relocState
	for k := range states {
		w := newRelocWorld(t, k == 1, oracleTiers[0])
		if _, err := w.src.Malloc("pad", 2*EntryBytes, Target2x); err != nil {
			t.Fatal(err)
		}
		a, err := w.src.Malloc("a", entries*EntryBytes, Target2x)
		if err != nil {
			t.Fatal(err)
		}
		if first := a.cur.reg.firstEntry; first%EntriesPerMetadataLine != 2 {
			t.Fatalf("region starts at entry %d of the table, want 2 into a line", first)
		}
		w.allocs = []*Allocation{a}
		// From a cold cache each: [60, 64) is one line of the allocation and
		// two of the cache.
		for _, span := range [][2]int{{60, 64}, {0, entries}, {1, 130}, {62, 66}, {126, entries}} {
			w.src.ResetTraffic()
			lo, hi := span[0]*EntryBytes, span[1]*EntryBytes
			if err := w.write(a, span[0], data[lo:hi]); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, hi-lo)
			if err := w.read(a, span[0], got); err != nil || !bytes.Equal(got, data[lo:hi]) {
				t.Fatalf("span %v: err=%v match=%v", span, err, bytes.Equal(got, data[lo:hi]))
			}
			states[k] = append(states[k], w.state())
		}
	}
	for i := range states[0] {
		if !reflect.DeepEqual(states[0][i], states[1][i]) {
			t.Fatalf("step %d: spans and singles diverge\n spans   %+v\n singles %+v", i, summary(states[0][i]), summary(states[1][i]))
		}
	}
	if s := states[0][len(states[0])-1]; s.Traffic[0].MetadataFillBytes == 0 || s.MetaHits[0] == 0 {
		t.Fatalf("nothing looked up: %+v", summary(s))
	}
}

// TestSpanEndsAtSubBatchBoundary races Fail against a long write span and
// Close against a long read span (run under -race): the span ends on the
// typed error, and because freed and failed are checked once per sub-batch
// under a.mu — which Close takes exclusively — what it charged is a whole
// number of sub-batches: no entry of the refused sub-batch was touched.
func TestSpanEndsAtSubBatchBoundary(t *testing.T) {
	const entries = 384 * spanBatchEntries
	data := fillEntries(entries, relocShapes, 33)
	for _, tc := range []struct {
		name string
		stop func(d *Device, a *Allocation)
		want error
		read bool
	}{
		{"Fail/write", func(d *Device, _ *Allocation) { d.Fail() }, ErrDeviceFailed, false},
		{"Free/read", func(_ *Device, a *Allocation) { _ = a.Close() }, ErrFreed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialSpans(t) // one goroutine per span: sub-batches run in order
			d := NewDevice(Config{DeviceBytes: 64 << 20})
			a, err := d.Malloc("long", entries*EntryBytes, Target2x)
			if err != nil {
				t.Fatal(err)
			}
			if tc.read {
				if err := a.WriteEntries(0, data); err != nil {
					t.Fatal(err)
				}
				d.ResetTraffic()
			}
			done := make(chan error, 1)
			go func() {
				if tc.read {
					done <- a.ReadEntries(0, make([]byte, len(data)))
				} else {
					done <- a.WriteEntries(0, data)
				}
			}()
			ops := func() uint64 { tr := d.Traffic(); return tr.Reads + tr.Writes }
			for ops() == 0 {
				runtime.Gosched() // let the span get going
			}
			tc.stop(d, a)
			err = <-done
			n := ops()
			if err == nil {
				if n != entries {
					t.Fatalf("span finished before the stop and charged %d of %d entries", n, entries)
				}
				t.Skip("the span outran the stop; nothing to check")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("span ended on %v, want %v", err, tc.want)
			}
			if n == 0 || n >= entries || n%spanBatchEntries != 0 {
				t.Errorf("span charged %d entries: want a whole number of %d-entry sub-batches short of %d", n, spanBatchEntries, entries)
			}
			if pt := d.slab.Traffic(); pt.Loads+pt.Stores-d.Traffic().MetadataFillBytes/MetadataLineBytes != n {
				t.Errorf("slab saw %d loads + %d stores (%d of them metadata fills) for %d entries charged",
					pt.Loads, pt.Stores, d.Traffic().MetadataFillBytes/MetadataLineBytes, n)
			}
			if !tc.read {
				// All or nothing: the charged prefix is stored, nothing past it.
				for _, i := range []int{0, int(n) - 1} {
					if a.store.get(i) == nil {
						t.Errorf("entry %d was charged but holds no stream", i)
					}
				}
				for i := int(n); i < entries; i++ {
					if a.store.get(i) != nil {
						t.Fatalf("entry %d, past the %d charged, holds a stream", i, n)
					}
				}
			}
		})
	}
}
