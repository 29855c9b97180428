package core

import (
	"errors"
	"sync"
	"testing"

	"buddy/internal/gen"
	"buddy/internal/nvlink"
)

// conformance is the shared Backend contract: every tier must account
// capacity and traffic the same way, and survive concurrent Access.
func conformance(t *testing.T, name string, mk func(capacity int64) Backend) {
	t.Run(name+"/identity", func(t *testing.T) {
		b := mk(1 << 20)
		if b.Name() == "" {
			t.Error("backend must have a name")
		}
		if c := b.Capacity(); c >= 0 && c != 1<<20 {
			t.Errorf("bounded backend capacity = %d, want %d", c, 1<<20)
		}
	})

	t.Run(name+"/capacity", func(t *testing.T) {
		b := mk(1 << 10)
		if b.Used() != 0 {
			t.Fatalf("fresh backend used = %d", b.Used())
		}
		if err := b.Reserve(512); err != nil {
			t.Fatalf("reserve within capacity: %v", err)
		}
		if b.Used() != 512 {
			t.Errorf("used = %d, want 512", b.Used())
		}
		if b.Capacity() >= 0 {
			if err := b.Reserve(1 << 10); !errors.Is(err, ErrOutOfMemory) {
				t.Errorf("over-reserve error = %v, want ErrOutOfMemory", err)
			}
			if b.Used() != 512 {
				t.Errorf("failed reserve must not change used, got %d", b.Used())
			}
		} else if err := b.Reserve(1 << 40); err != nil {
			t.Errorf("unbounded backend refused reservation: %v", err)
		}
		b.Release(512)
		if u := b.Used(); u != 0 && b.Capacity() >= 0 {
			t.Errorf("after release used = %d, want 0", u)
		}
	})

	t.Run(name+"/traffic", func(t *testing.T) {
		b := mk(1 << 20)
		b.Access([]TierOp{{Entry: 0, Bytes: 96, Store: true}, {Entry: 1, Bytes: 32, Store: true}})
		b.Access(nil)
		b.Access([]TierOp{{Entry: 0, Bytes: 64}})
		tr := b.Traffic()
		if tr.Stores != 2 || tr.WrittenBytes != 128 {
			t.Errorf("stores=%d written=%d, want 2/128", tr.Stores, tr.WrittenBytes)
		}
		if tr.Loads != 1 || tr.ReadBytes != 64 {
			t.Errorf("loads=%d read=%d, want 1/64", tr.Loads, tr.ReadBytes)
		}
		b.ResetTraffic()
		tr = b.Traffic()
		if tr.Stores != 0 || tr.Loads != 0 || tr.ReadBytes != 0 || tr.WrittenBytes != 0 {
			t.Errorf("reset left counters: %+v", tr)
		}
	})

	t.Run(name+"/lifecycle", func(t *testing.T) {
		b := mk(1 << 10)
		// Used returns to zero after releasing every live reservation, in
		// any release order.
		for _, n := range []int64{128, 256, 64} {
			if err := b.Reserve(n); err != nil {
				t.Fatal(err)
			}
		}
		b.Release(256)
		b.Release(64)
		b.Release(128)
		if u := b.Used(); u != 0 {
			t.Fatalf("used = %d after free-all, want 0", u)
		}
		// Release after a free returns real capacity: a bounded tier must
		// accept a full-capacity reservation again.
		if b.Capacity() >= 0 {
			if err := b.Reserve(b.Capacity()); err != nil {
				t.Fatalf("full re-reserve after free-all failed: %v", err)
			}
			b.Release(b.Capacity())
		}
		// Over-release is a lifecycle accounting bug: it must panic
		// deterministically and leave Used untouched.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("over-release must panic")
				}
			}()
			b.Release(1)
		}()
		if u := b.Used(); u != 0 {
			t.Errorf("failed over-release changed used to %d", u)
		}
	})

	t.Run(name+"/concurrent", func(t *testing.T) {
		b := mk(1 << 30)
		const workers, ops = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					b.Access([]TierOp{{Entry: w*ops + i, Bytes: 32, Store: true}, {Entry: w*ops + i, Bytes: 32}})
					if err := b.Reserve(16); err == nil {
						b.Release(16)
					}
				}
			}(w)
		}
		wg.Wait()
		tr := b.Traffic()
		if tr.Stores != workers*ops || tr.Loads != workers*ops {
			t.Errorf("stores=%d loads=%d, want %d each", tr.Stores, tr.Loads, workers*ops)
		}
		if tr.WrittenBytes != workers*ops*32 || tr.ReadBytes != workers*ops*32 {
			t.Errorf("bytes lost under concurrency: %+v", tr)
		}
	})
}

func TestBackendConformance(t *testing.T) {
	// The device's own slab is no Backend of the device, but it is built
	// from the same meters and keeps the same capacity and traffic contract.
	conformance(t, "slab", func(c int64) Backend { return &NewDevice(Config{DeviceBytes: c}).slab })
	conformance(t, "carveout", func(c int64) Backend {
		return NewCarveoutBackend(c, nvlink.DefaultConfig())
	})
	conformance(t, "host-um", func(c int64) Backend {
		// The host tier is unbounded by design; capacity bounds only the
		// resident pool.
		return NewHostBackend(4<<10, c)
	})
}

func TestCarveoutBackendModelsLink(t *testing.T) {
	b := NewCarveoutBackend(1<<20, nvlink.DefaultConfig())
	d := NewDevice(Config{DeviceBytes: 1 << 20, Overflow: b})
	b.Access([]TierOp{{Entry: 0, Bytes: 1 << 16, Store: true}, {Entry: 1, Bytes: 1 << 16}})
	r, w := d.LinkOccupancy()
	if r <= 0 || w <= 0 {
		t.Errorf("link occupancy read=%f write=%f, want both positive", r, w)
	}
	b.ResetTraffic()
	if r, w = d.LinkOccupancy(); r != 0 || w != 0 {
		t.Errorf("reset left link occupancy read=%f write=%f", r, w)
	}
}

// TestCarveoutAccessOrderIndependent is why the carve-out needs no lock and
// a walker's span workers no ordering between them: any permutation of the
// same ops, cut into batches anywhere and handed over from any number of
// goroutines, leaves the same meter, and link occupancy is that meter's
// bytes over the link rate exactly — a quotient, not a running float sum.
func TestCarveoutAccessOrderIndependent(t *testing.T) {
	link := nvlink.Config{BandwidthGBs: 93, CoreClockGHz: 1.7} // a rate that is not a round number of bytes per cycle
	bytesPerCycle := nvlink.New(link).BytesPerCycle()
	r := gen.NewRNG(11, 3)
	ops := make([]TierOp, 2000)
	var want BackendTraffic
	for i := range ops {
		ops[i] = TierOp{Entry: r.Intn(1 << 20), Bytes: int32(32 * (1 + r.Intn(4))), Store: r.Intn(3) == 0}
		if ops[i].Store {
			want.Stores++
			want.WrittenBytes += uint64(ops[i].Bytes)
		} else {
			want.Loads++
			want.ReadBytes += uint64(ops[i].Bytes)
		}
	}
	for trial := 0; trial < 50; trial++ {
		for i := len(ops) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			ops[i], ops[j] = ops[j], ops[i]
		}
		b := NewCarveoutBackend(-1, link)
		var wg sync.WaitGroup
		for rest := ops; len(rest) > 0; {
			n := 1 + r.Intn(min(len(rest), 300))
			batch := rest[:n]
			rest = rest[n:]
			if trial%2 == 0 {
				b.Access(batch)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.Access(batch)
			}()
		}
		wg.Wait()
		if got := b.Traffic(); got != want {
			t.Fatalf("trial %d: traffic %+v, want %+v", trial, got, want)
		}
		d := NewDevice(Config{DeviceBytes: 1 << 20, Overflow: b})
		rd, wr := d.LinkOccupancy()
		_ = d.Close()
		if rd != float64(want.ReadBytes)/bytesPerCycle || wr != float64(want.WrittenBytes)/bytesPerCycle {
			t.Fatalf("trial %d: link occupancy %v/%v, want bytes over %v bytes per cycle exactly", trial, rd, wr, bytesPerCycle)
		}
	}
}

// TestHostBackendCountsFaults is the counterpart: why a span still arrives
// in the order its accesses happened. With one resident page, ping-pong
// between two pages faults on every touch; the same ops grouped by page
// fault once per page.
func TestHostBackendCountsFaults(t *testing.T) {
	const pageBytes, rounds = 4 << 10, 10
	pageEntries := pageBytes / EntryBytes
	var pingPong, grouped []TierOp
	for i := 0; i < rounds; i++ {
		pingPong = append(pingPong, TierOp{Entry: 0, Bytes: 32, Store: true}, TierOp{Entry: pageEntries, Bytes: 32, Store: true})
	}
	for _, entry := range []int{0, pageEntries} {
		for i := 0; i < rounds; i++ {
			grouped = append(grouped, TierOp{Entry: entry, Bytes: 32, Store: true})
		}
	}
	for _, tc := range []struct {
		name   string
		ops    []TierOp
		faults uint64
	}{{"ping-pong", pingPong, 2 * rounds}, {"grouped by page", grouped, 2}} {
		b := NewHostBackend(pageBytes, pageBytes)
		b.Access(tc.ops[:rounds]) // the batching does not matter, the order does
		b.Access(tc.ops[rounds:])
		tr := b.Traffic()
		if tr.Stores != 2*rounds || tr.WrittenBytes != 2*rounds*32 {
			t.Errorf("%s: stores=%d written=%d, want %d/%d", tc.name, tr.Stores, tr.WrittenBytes, 2*rounds, 2*rounds*32)
		}
		if tr.Faults != tc.faults || tr.MigratedBytes != tc.faults*pageBytes {
			t.Errorf("%s across a one-page pool: %d faults, %d bytes migrated, want %d faults of %d bytes",
				tc.name, tr.Faults, tr.MigratedBytes, tc.faults, pageBytes)
		}
	}
}
