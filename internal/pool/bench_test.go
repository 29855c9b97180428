package pool

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"buddy/internal/core"
	"buddy/internal/gen"
)

// Serving-layer benchmarks. BenchmarkPoolServe measures host-side serving
// throughput through the async submission queues in two traffic shapes —
// bulk (64 KiB submissions, the shape the parallel batch path always
// handled) and chunked (4 KiB submissions, the "many small bursty
// transfers" shape of ML serving traffic, which only reaches the batch
// primitives through worker-side coalescing). BenchmarkSubmitWrite pins
// the submit→complete control-path cost per entry at zero allocations.
// The rpc leg is the opposite shape: synchronous 1-4-entry operations at
// random offsets, where nothing coalesces and the pool's own per-operation
// cost dominates the codec's. The per-shape ns/entry (and SubmitWrite's and
// the rpc leg's allocs/op) are what BENCH_baseline.json pins via
// `make bench-gate`.

// benchServe drives 8 concurrent clients, each streaming a 256 KiB
// working set (write + read-back) into a 4-shard pool in chunkBytes
// submissions. rebalEvery > 0 additionally runs a watcher goroutine that
// calls Rebalance on that interval throughout — the "watched" leg pins
// that an aggressively ticking watcher costs the serve path nothing
// measurable. tenants, when non-nil, configures the pool's tenant set and
// spreads the clients round-robin across the named tenants — the "tenants"
// leg pins that classed, weighted-fair dequeue costs roughly what the
// single-ring path does.
func benchServe(b *testing.B, chunkBytes int, rebalEvery time.Duration, tenants map[string]TenantConfig) {
	const (
		clients    = 8
		perClient  = 256 << 10
		shardBytes = 4 << 20
	)
	chunks := perClient / chunkBytes
	devices := make([]*core.Device, 4)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: shardBytes})
	}
	p, err := New(devices, Config{Tenants: tenants})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if rebalEvery > 0 {
		tick := time.NewTicker(rebalEvery)
		stop, watched := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watched)
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if _, err := p.Rebalance(); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		defer func() { close(stop); <-watched; tick.Stop() }()
	}
	var doors []*Tenant
	for _, ts := range p.Stats().Tenants {
		if ts.Name == DefaultTenant && tenants != nil {
			continue
		}
		door, err := p.Tenant(ts.Name)
		if err != nil {
			b.Fatal(err)
		}
		doors = append(doors, door)
	}

	// Per-client working sets: 90%-sparse fp16 activations, the cDMA-style
	// ML serving traffic the paper (and the chunked shape) targets.
	data := make([][]byte, clients)
	handles := make([]*Handle, clients)
	r := gen.NewRNG(7, 1)
	for c := range data {
		data[c] = make([]byte, perClient)
		(gen.SparseFP16{ZeroFrac: 0.9}).Fill(data[c], r)
		h, err := doors[c%len(doors)].Malloc(fmt.Sprintf("c%d", c), int64(len(data[c])), core.Target2x)
		if err != nil {
			b.Fatal(err)
		}
		handles[c] = h
	}
	read := make([][]byte, clients)
	futs := make([][]*Future, clients)
	for c := range read {
		read[c] = make([]byte, len(data[c]))
		futs[c] = make([]*Future, 0, chunks)
	}
	b.SetBytes(int64(clients * perClient * 2)) // written + read back
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				fs := futs[c][:0]
				for k := 0; k < chunks; k++ {
					fs = append(fs, p.SubmitWrite(handles[c], data[c][k*chunkBytes:(k+1)*chunkBytes], int64(k*chunkBytes)))
				}
				for _, f := range fs {
					if _, err := f.Wait(); err != nil {
						done <- err
						return
					}
				}
				fs = fs[:0]
				for k := 0; k < chunks; k++ {
					fs = append(fs, p.SubmitRead(handles[c], read[c][k*chunkBytes:(k+1)*chunkBytes], int64(k*chunkBytes)))
				}
				for _, f := range fs {
					if _, err := f.Wait(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < clients; c++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	entries := int64(clients * perClient * 2 / core.EntryBytes)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}

// benchRPC drives eight synchronous callers, four per tenant of a
// latency-class and a batch tenant, against a 4-shard pool: every caller
// issues b.N Submit*(...).Wait() operations of 1-4 entries at a random
// entry-aligned offset of its own 256 KiB allocation, 70 % reads. An op
// here is one operation per caller, so allocs/op is per eight operations
// and must be zero: small operations on a quiescent shard run in place,
// never queued, the future recycled by Wait.
func benchRPC(b *testing.B) {
	const (
		callers   = 8
		perCaller = 256 << 10
		maxOp     = 4 * core.EntryBytes
	)
	devices := make([]*core.Device, 4)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 4 << 20})
	}
	p, err := New(devices, Config{Tenants: map[string]TenantConfig{
		"lat":   {Priority: 2},
		"batch": {Weight: 1},
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	handles := make([]*Handle, callers)
	data := make([]byte, perCaller)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(data, gen.NewRNG(7, 1))
	for c := range handles {
		door, err := p.Tenant([]string{"lat", "batch"}[c%2])
		if err != nil {
			b.Fatal(err)
		}
		if handles[c], err = door.Malloc(fmt.Sprintf("c%d", c), perCaller, core.Target2x); err != nil {
			b.Fatal(err)
		}
		// First touch takes each entry's slot in the stream store.
		if _, err := handles[c].WriteAt(data, 0); err != nil {
			b.Fatal(err)
		}
	}
	var entries [callers]int64
	errs := make([]error, callers)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := gen.NewRNG(11, uint64(c))
			var buf [maxOp]byte
			for i := 0; i < b.N; i++ {
				n := 1 + rng.Intn(4)
				e := rng.Intn(perCaller/core.EntryBytes - n + 1)
				submit := p.SubmitRead
				if rng.Intn(10) < 3 {
					submit = p.SubmitWrite
					copy(buf[:], data[e*core.EntryBytes:(e+n)*core.EntryBytes])
				}
				if _, err := submit(handles[c], buf[:n*core.EntryBytes], int64(e)*core.EntryBytes).Wait(); err != nil {
					errs[c] = err
					return
				}
				entries[c] += int64(n)
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	var total int64
	for c := range entries {
		if errs[c] != nil {
			b.Fatal(errs[c])
		}
		total += entries[c]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/entry")
}

func BenchmarkPoolServe(b *testing.B) {
	b.Run("rpc", benchRPC)
	b.Run("bulk", func(b *testing.B) { benchServe(b, 64<<10, 0, nil) })
	b.Run("chunked", func(b *testing.B) { benchServe(b, 4<<10, 0, nil) })
	// Same bulk traffic with a watcher calling Rebalance every 100 µs —
	// far hotter than any deployment would run it. The baseline pins this
	// leg at the bulk leg's ns/entry, so a watcher that starts costing the
	// serve path real time fails the gate.
	b.Run("watched", func(b *testing.B) { benchServe(b, 64<<10, 100*time.Microsecond, nil) })
	// Same bulk traffic spread across four tenants in two priority classes
	// with unequal weights — every dequeue walks the classed, weighted-fair
	// path instead of the single-ring fast case. Pinned near the bulk leg:
	// multi-tenant scheduling must not tax the serve path.
	b.Run("tenants", func(b *testing.B) {
		benchServe(b, 64<<10, 0, map[string]TenantConfig{
			"batch-a": {Weight: 3},
			"batch-b": {Weight: 1},
			"lat-a":   {Priority: 2},
			"lat-b":   {Priority: 1},
		})
	})
}

// BenchmarkRelocate pins the three movers that run on core's relocation
// kernel, each at steady state on one 16 Ki-entry allocation of mixed
// compressibility in a two-shard pool: retarget (one Device.Retarget per
// iteration, alternating between two neighbouring ratios), transfer (one
// MigrateHandle per iteration, back and forth: a MoveTo, handed over a
// metadata line at a time) and recover (Kill plus Recover of the serving
// shard). The mixed data overflows either target in about half its entries;
// retarget-lowspill is retarget over data that overflows in one run of
// entries in sixteen (~6 %, the relocate workload's fleet), where a line
// costs what its non-spilling entries cost. ns/entry is wall time over the
// allocation's entries; allocs/op is per whole move, so it pins that a move
// allocates a fixed handful of objects (the next layout, the epoch and its
// moved words), none per entry.
func BenchmarkRelocate(b *testing.B) {
	const entries = 16 << 10
	mixed := []gen.Generator{
		gen.SparseFP16{ZeroFrac: 0.7}, gen.Zeros{}, gen.Ramp{Start: 1, Step: 5},
		gen.Noisy64{NoiseBits: 8, HiStep: 1}, gen.Random{},
	}
	lowSpill := append([]gen.Generator{gen.Random{}},
		slices.Repeat([]gen.Generator{gen.Zeros{}, gen.Noisy64{NoiseBits: 8, HiStep: 1}, gen.Ramp{Start: 1, Step: 5}}, 5)...)
	setup := func(b *testing.B, shapes []gen.Generator) (*Pool, *FailureInjector, *Handle) {
		fi := NewFailureInjector()
		devices := []*core.Device{
			core.NewDevice(core.Config{DeviceBytes: 8 << 20}),
			core.NewDevice(core.Config{DeviceBytes: 8 << 20}),
		}
		p, err := New(devices, Config{Placement: Explicit(0), Injector: fi})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = p.Close() })
		data := make([]byte, entries*core.EntryBytes)
		r := gen.NewRNG(9, 1)
		for e := 0; e < entries; e++ {
			shapes[e/8%len(shapes)].Fill(data[e*core.EntryBytes:(e+1)*core.EntryBytes], r)
		}
		h, err := p.Malloc("moving", int64(len(data)), core.Target2x)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.WriteAt(data, 0); err != nil {
			b.Fatal(err)
		}
		return p, fi, h
	}
	// run times b.N moves after two untimed ones (first touch of the
	// destination tables and the region holes the steady state reuses).
	run := func(b *testing.B, move func(i int) error) {
		for i := 0; i < 2; i++ {
			if err := move(i); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := move(i); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
	}
	retarget := func(shapes []gen.Generator) func(b *testing.B) {
		return func(b *testing.B) {
			p, _, h := setup(b, shapes)
			targets := [2]core.TargetRatio{core.Target4by3x, core.Target2x}
			run(b, func(i int) error {
				_, err := p.Device(0).Retarget(h.Alloc(), targets[i%2])
				return err
			})
		}
	}
	b.Run("retarget", retarget(mixed))
	b.Run("retarget-lowspill", retarget(lowSpill))
	b.Run("transfer", func(b *testing.B) {
		p, _, h := setup(b, mixed)
		run(b, func(i int) error { return p.MigrateHandle(h, (i+1)%2) })
	})
	b.Run("recover", func(b *testing.B) {
		p, fi, _ := setup(b, mixed)
		run(b, func(int) error {
			if err := fi.Kill(0); err != nil {
				return err
			}
			_, err := p.Recover(0)
			return err
		})
	})
}

// BenchmarkQoSDequeue pins the scheduler's control-path cost in
// isolation: one enqueue plus its dequeue per task, cycled across four
// tenants in two priority classes so every window exercises class
// selection and deficit round-robin. No worker or device behind it — this
// is the pure scheduling overhead added to every submitted operation, and
// it must stay allocation-free (the gate pins allocs/op at zero).
func BenchmarkQoSDequeue(b *testing.B) {
	tens, _ := buildTenants(map[string]TenantConfig{
		"batch":   {Weight: 3},
		"bulk":    {Weight: 1},
		"latency": {Priority: 2},
	})
	s := newSched(nil, tens, 64)
	buf := make([]byte, 4<<10)
	tasks := make([]*Future, len(tens))
	for i := range tasks {
		tasks[i] = &Future{buf: buf}
	}
	var run [maxRunTasks]*Future
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, t := range tasks {
			if err := s.enqueue(t, tens[k]); err != nil {
				b.Fatal(err)
			}
		}
		for q := len(tasks); q > 0; {
			q -= s.dequeue(&run)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tasks)), "ns/entry")
}

// BenchmarkRebalanceScan pins the watcher's per-call cost: one pressure
// scan over a 4-shard fleet with live load. The gate pins allocs/op at
// zero — a serving process may call Rebalance for as long as it runs, so
// the scan must stay allocation-free.
func BenchmarkRebalanceScan(b *testing.B) {
	devices := make([]*core.Device, 4)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 4 << 20})
	}
	p, err := New(devices, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	data := make([]byte, 256<<10)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(data, gen.NewRNG(7, 1))
	h, err := p.Malloc("load", int64(len(data)), core.Target2x)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.WriteAt(data, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.rebalanceScan()
	}
}

// BenchmarkSubmitWrite measures one client's submit→complete round trip
// for a 4 KiB chunk: queue handoff, worker execution and future wake-up.
// Steady state must not allocate — an operation is one pooled future.
func BenchmarkSubmitWrite(b *testing.B) {
	devices := []*core.Device{core.NewDevice(core.Config{DeviceBytes: 4 << 20})}
	p, err := New(devices, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const chunk = 4 << 10
	data := make([]byte, chunk)
	(gen.SparseFP16{ZeroFrac: 0.9}).Fill(data, gen.NewRNG(7, 1))
	h, err := p.Malloc("bench", 256<<10, core.Target2x)
	if err != nil {
		b.Fatal(err)
	}
	// First touch takes each entry's slot in the stream store.
	for off := int64(0); off < h.Size(); off += chunk {
		if _, err := p.SubmitWrite(h, data, off).Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SubmitWrite(h, data, int64(i)%(h.Size()-chunk)).Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(chunk/core.EntryBytes), "ns/entry")
}
