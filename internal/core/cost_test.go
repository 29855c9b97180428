package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"buddy/internal/compress"
	"buddy/internal/gen"
)

// ledgers is what a Cost is a delta of, summed over the world's two devices.
func (w *relocWorld) ledgers() (c Cost) {
	for _, d := range []*Device{w.src, w.dst} {
		t := d.Traffic()
		c.add(Cost{t.DeviceReadBytes + t.DeviceWriteBytes, t.BuddyReadBytes, t.BuddyWriteBytes})
	}
	return c
}

// TestCostEqualsLedgerDelta is the identity the cost model rests on: what
// Access returns is what its passes charged, to the byte. Over the relocation
// oracles' worlds a seeded sequence of reads and writes — spans of one, spans
// of two bulk grains and more (fanned out at -cpu 4 under
// carveout-fanout), unaligned heads and tails (the read-modify-write edges),
// never-written entries, the second half racing a MoveTo to the other device
// held open at a random cut — has the sum of the returned costs equal the
// ledgers' delta over both devices after every operation, as integers. An
// operation that fails mid-span returns the cost of exactly what was charged.
func TestCostEqualsLedgerDelta(t *testing.T) {
	for _, tier := range oracleTiers {
		t.Run(tier.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				w := newRelocWorld(t, false, tier)
				r := gen.NewRNG(seed, 79)
				for k, n := 0, 2+r.Intn(3); k < n; k++ {
					entries := 1 + r.Intn(4*spanBatchEntries)
					a, err := w.src.Malloc(fmt.Sprintf("a%d", k), int64(entries)*EntryBytes-int64(r.Intn(EntryBytes)), AllRatios[r.Intn(len(AllRatios))])
					if err != nil {
						t.Fatal(err)
					}
					w.allocs = append(w.allocs, a)
				}
				var sum Cost
				base := w.ledgers()
				check := func(step string, c Cost) {
					t.Helper()
					sum.add(c)
					got := w.ledgers()
					got = Cost{got.DeviceBytes - base.DeviceBytes, got.LinkRead - base.LinkRead, got.LinkWrite - base.LinkWrite}
					if got != sum {
						t.Fatalf("seed %d after %s (cost %+v): ledgers moved %+v, costs returned sum to %+v", seed, step, c, got, sum)
					}
				}
				const ops = 40
				var held *Allocation
				var mig *migration
				var cut int // held's entries from cut on are on the other device
				for op := 0; op < ops; op++ {
					if op == ops/2 {
						// Hold a MoveTo open: from here an operation on held
						// charges two devices, on two tallies. The mover's own
						// traffic is no operation's cost.
						held = w.allocs[r.Intn(len(w.allocs))]
						var err error
						if mig, err = held.beginRelayout(w.dst, held.Target()); err != nil {
							t.Fatal(err)
						}
						cut = r.Intn(held.EntryCount + 1)
						w.migratePart(held, mig, cut, held.EntryCount)
						base, sum = w.ledgers(), Cost{}
					}
					a := w.allocs[r.Intn(len(w.allocs))]
					if held != nil && r.Intn(2) == 0 {
						a = held
					}
					off := r.Intn(int(a.size))
					n := 1 + r.Intn(int(a.size)-off)
					switch r.Intn(4) {
					case 0: // one entry, whole
						off -= off % EntryBytes
						n = min(EntryBytes, int(a.size)-off)
					case 1: // a few bytes: an edge alone
						n = min(n, 1+r.Intn(2*EntryBytes))
					case 2: // two bulk grains and more, aligned, where it fits
						if int(a.size) >= 2*bulkGrainEntries*EntryBytes {
							off = r.Intn(int(a.size)-2*bulkGrainEntries*EntryBytes+1) / EntryBytes * EntryBytes
							n = int(a.size) - off
							n -= n % EntryBytes
						}
					}
					write := r.Intn(5) < 3
					buf := make([]byte, n)
					if write {
						copy(buf, fillEntries(n/EntryBytes+1, relocShapes[r.Intn(len(relocShapes)):][:1], r.Uint64()))
					}
					got, c, err := a.Access(buf, int64(off), write)
					if err != nil || got != n {
						t.Fatalf("seed %d: Access(%s, %d bytes at %d, write %v) = %d, %v", seed, a.Name, n, off, write, got, err)
					}
					check(fmt.Sprintf("op %d: %s %d bytes at %d, write %v", op, a.Name, n, off, write), c)
				}

				// Mid-span failures, over the allocation whose entries sit on two
				// devices. A stream that will not decode ends a read at its
				// entry; a dead device ends an operation at cut, the first entry
				// homed there. Either way the cost is what was charged up to there.
				data := fillEntries(held.EntryCount, []gen.Generator{gen.Random{}}, seed)
				if _, c, err := held.Access(data[:held.size], 0, true); err != nil {
					t.Fatal(err)
				} else {
					check("rewrite held with raw frames", c)
				}
				bad := held.EntryCount / 2
				corruptStream(held, bad, len(held.store.get(bad))/2)
				n, c, err := held.Access(make([]byte, held.size), 0, false)
				if !errors.Is(err, compress.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("entry %d of", bad)) {
					t.Fatalf("seed %d: read over corrupt entry %d: %d, %v", seed, bad, n, err)
				}
				check("read over a corrupt stream", c)
				w.dst.Fail()
				for _, write := range []bool{false, true} {
					_, c, err = held.Access(data[:held.size], 0, write)
					if down := cut < held.EntryCount; err == nil && (down || !write) || write && errors.Is(err, ErrDeviceFailed) != down {
						t.Fatalf("seed %d: access (write %v) with entries from %d of %d on a dead device: %v", seed, write, cut, held.EntryCount, err)
					}
					check(fmt.Sprintf("access (write %v) with the far device down", write), c)
				}
				w.dst.failed.Store(false)
				w.migratePart(held, mig, 0, held.EntryCount)
				held.commitRelayout(mig)
			}
		})
	}
}
