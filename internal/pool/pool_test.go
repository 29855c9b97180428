package pool

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"buddy/internal/core"
	"buddy/internal/gen"
)

// newTestPool builds a pool of n small devices (64 KiB slab, 3x carve-out
// each) with the given placement.
func newTestPool(t *testing.T, n int, place Placement) *Pool {
	t.Helper()
	devices := make([]*core.Device, n)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 64 << 10})
	}
	p, err := New(devices, Config{Placement: place})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// pattern fills b with a deterministic byte sequence seeded by tag.
func pattern(b []byte, tag byte) {
	for i := range b {
		b[i] = byte(i)*3 + tag
	}
}

func TestLeastUsedPlacementDeterminism(t *testing.T) {
	// Two identical pools see the same Malloc sequence; least-used with a
	// lowest-index tie-break must produce identical shard assignments.
	sizes := []int64{8 << 10, 4 << 10, 16 << 10, 4 << 10, 8 << 10, 2 << 10, 32 << 10, 1 << 10}
	var first []int
	for run := 0; run < 2; run++ {
		p := newTestPool(t, 4, nil) // nil selects the LeastUsed default
		var got []int
		for i, sz := range sizes {
			h, err := p.Malloc(fmt.Sprintf("a%d", i), sz, core.Target1x)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, h.Shard())
		}
		if run == 0 {
			first = got
			// The empty pool ties every shard: the first alloc must land on
			// shard 0, and the next ones on the least-used shard.
			if got[0] != 0 || got[1] != 1 {
				t.Fatalf("least-used start: got %v", got[:2])
			}
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("placement not deterministic: run0 %v, run1 %v", first, got)
			}
		}
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	p := newTestPool(t, 3, RoundRobin())
	for i := 0; i < 6; i++ {
		h, err := p.Malloc(fmt.Sprintf("a%d", i), 1<<10, core.Target1x)
		if err != nil {
			t.Fatal(err)
		}
		if h.Shard() != i%3 {
			t.Fatalf("alloc %d on shard %d, want %d", i, h.Shard(), i%3)
		}
	}
}

func TestExplicitPlacementAndSpill(t *testing.T) {
	p := newTestPool(t, 2, Explicit(1))
	// Shard 1 holds 64 KiB at 1x; the third 24 KiB allocation must spill to
	// shard 0 (wrapping past the end), not fail.
	shards := []int{1, 1, 0}
	for i, want := range shards {
		h, err := p.Malloc(fmt.Sprintf("a%d", i), 24<<10, core.Target1x)
		if err != nil {
			t.Fatal(err)
		}
		if h.Shard() != want {
			t.Fatalf("alloc %d on shard %d, want %d", i, h.Shard(), want)
		}
	}
	// Both shards full: the pool-wide failure must wrap core.ErrOutOfMemory.
	if _, err := p.Malloc("toobig", 60<<10, core.Target1x); !errors.Is(err, core.ErrOutOfMemory) {
		t.Fatalf("exhausted pool returned %v, want ErrOutOfMemory", err)
	}
}

func TestHandleRoutesIO(t *testing.T) {
	p := newTestPool(t, 4, RoundRobin())
	const n = 4 << 10
	want := make([][]byte, 6)
	hs := make([]*Handle, 6)
	for i := range hs {
		h, err := p.Malloc(fmt.Sprintf("a%d", i), n, core.Target2x)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
		want[i] = make([]byte, n)
		pattern(want[i], byte(i))
		if _, err := h.WriteAt(want[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hs {
		got := make([]byte, n)
		if _, err := h.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("alloc %d read-back mismatch (shard %d)", i, h.Shard())
		}
	}
	// Cross-shard Memcpy through both pipelines.
	dst, err := p.Malloc("copy", n, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Shard() == hs[1].Shard() {
		t.Fatal("test wants a cross-shard pair")
	}
	if _, err := core.Memcpy(dst.Alloc(), hs[1].Alloc(), n); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if _, err := dst.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[1]) {
		t.Fatal("cross-shard Memcpy mismatch")
	}
	// Close frees on the owning device.
	usedBefore := p.Device(hs[0].Shard()).DeviceUsed()
	if err := hs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if used := p.Device(hs[0].Shard()).DeviceUsed(); used >= usedBefore {
		t.Fatalf("Close did not release device bytes: %d -> %d", usedBefore, used)
	}
	if _, err := hs[0].ReadAt(got, 0); !errors.Is(err, core.ErrFreed) {
		t.Fatalf("read after Close = %v, want ErrFreed", err)
	}
}

func TestAsyncSubmit(t *testing.T) {
	// One worker per shard: a shard's queue then drains FIFO, which the
	// last-write-wins check below relies on (with several workers,
	// same-offset submissions may execute out of order, like any
	// concurrent writers).
	devices := []*core.Device{
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
		core.NewDevice(core.Config{DeviceBytes: 64 << 10}),
	}
	p, err := New(devices, Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Writes above inPlaceMaxBytes: every one takes the scheduler, so the
	// depth-2 queue genuinely backs up.
	const (
		chunk = 2 * inPlaceMaxBytes
		n     = 16 * chunk
	)
	h, err := p.Malloc("async", n, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	// 64 in-flight futures against depth-2 queues: backpressure must block
	// submitters, never drop or deadlock.
	const ops = 64
	futs := make([]*Future, 0, ops)
	bufs := make([][]byte, ops)
	for i := 0; i < ops; i++ {
		bufs[i] = make([]byte, chunk)
		pattern(bufs[i], byte(i))
		futs = append(futs, p.SubmitWrite(h, bufs[i], int64(i)*chunk%n))
	}
	for i, f := range futs {
		if wn, err := f.Wait(); err != nil || wn != chunk {
			t.Fatalf("write %d: n=%d err=%v", i, wn, err)
		}
	}
	// The last write to each offset wins; read one offset back async.
	got := make([]byte, chunk)
	if _, err := p.SubmitRead(h, got, 0).Wait(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, chunk)
	pattern(want, byte(ops-16)) // offset 0 last written by i=ops-16
	if !bytes.Equal(got, want) {
		t.Fatal("async read-back mismatch")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitRead(h, got, 0).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
	if _, err := p.Malloc("late", 1<<10, core.Target1x); !errors.Is(err, ErrClosed) {
		t.Fatalf("Malloc after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
}

// TestOneShardConformance pins the pool's routing overhead at zero
// semantics: a 1-shard pool must be byte-identical to a bare Device — same
// read-back bytes, same traffic counters, same tier occupancy, same
// compression ratio.
func TestOneShardConformance(t *testing.T) {
	newDev := func() *core.Device {
		return core.NewDevice(core.Config{DeviceBytes: 64 << 10})
	}
	bare := newDev()
	p, err := New([]*core.Device{newDev()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	data := make([]byte, 12<<10)
	pattern(data, 7)

	// Drive both through the same script of mixed aligned/unaligned ops.
	type rw interface {
		ReadAt([]byte, int64) (int, error)
		WriteAt([]byte, int64) (int, error)
	}
	script := func(mk func(name string, size int64, tr core.TargetRatio) (rw, error)) ([]byte, error) {
		a, err := mk("conf", int64(len(data)), core.Target2x)
		if err != nil {
			return nil, err
		}
		if _, err := a.WriteAt(data, 0); err != nil {
			return nil, err
		}
		if _, err := a.WriteAt(data[:1000], 100); err != nil { // unaligned RMW
			return nil, err
		}
		out := make([]byte, len(data))
		if _, err := a.ReadAt(out, 0); err != nil {
			return nil, err
		}
		if _, err := a.ReadAt(out[:333], 77); err != nil {
			return nil, err
		}
		return out, nil
	}
	gotBare, err := script(func(n string, s int64, tr core.TargetRatio) (rw, error) {
		return bare.Malloc(n, s, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	gotPool, err := script(func(n string, s int64, tr core.TargetRatio) (rw, error) {
		return p.Malloc(n, s, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBare, gotPool) {
		t.Fatal("1-shard pool read-back differs from bare device")
	}
	if bt, pt := bare.Traffic(), p.Stats().Traffic; bt != pt {
		t.Fatalf("traffic differs:\nbare %+v\npool %+v", bt, pt)
	}
	if bare.DeviceUsed() != p.Stats().DeviceUsed || bare.BuddyUsed() != p.Stats().BuddyUsed {
		t.Fatal("tier occupancy differs")
	}
	if br, pr := bare.CompressionRatio(), p.CompressionRatio(); br != pr {
		t.Fatalf("compression ratio differs: %v vs %v", br, pr)
	}
	if hr := p.Stats().MetadataCacheHitRate; hr != bare.MetadataCacheHitRate() {
		t.Fatalf("metadata hit rate differs: %v vs %v", hr, bare.MetadataCacheHitRate())
	}
}

func TestStatsAggregation(t *testing.T) {
	p := newTestPool(t, 3, RoundRobin())
	data := make([]byte, 4<<10)
	pattern(data, 1)
	for i := 0; i < 3; i++ {
		h, err := p.Malloc(fmt.Sprintf("a%d", i), int64(len(data)), core.Target1x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("Shards = %d", len(st.Shards))
	}
	var wantTraffic core.Traffic
	var wantUsed int64
	for i, s := range st.Shards {
		if s.Shard != i {
			t.Fatalf("shard %d labeled %d", i, s.Shard)
		}
		if s.Allocs != 1 {
			t.Fatalf("shard %d: Allocs=%d, want 1", i, s.Allocs)
		}
		wantTraffic = addTraffic(wantTraffic, p.Device(i).Traffic())
		wantUsed += p.Device(i).DeviceUsed()
	}
	if st.Traffic != wantTraffic {
		t.Fatal("aggregate traffic is not the element-wise sum")
	}
	if st.DeviceUsed != wantUsed || st.Allocs != 3 {
		t.Fatalf("aggregate: used=%d allocs=%d", st.DeviceUsed, st.Allocs)
	}
	if st.DeviceCapacity != 3*(64<<10) {
		t.Fatalf("aggregate capacity = %d", st.DeviceCapacity)
	}
	p.ResetTraffic()
	if rt := p.Stats().Traffic; rt != (core.Traffic{}) {
		t.Fatalf("ResetTraffic left %+v", rt)
	}
}

// allocsOf is the allocations of the pool's live handles, the input a live
// reprofile plan is made from.
func allocsOf(p *Pool) []*core.Allocation {
	var out []*core.Allocation
	for _, h := range p.Handles() {
		out = append(out, h.Alloc())
	}
	return out
}

// TestApplyReprofileFanout plans a reprofile from the fleet's live metadata
// and applies it across shards; a decision for an allocation no handle holds
// — on a device outside the pool, under a name a handle has — is skipped.
func TestApplyReprofileFanout(t *testing.T) {
	p := newTestPool(t, 2, RoundRobin())
	const size = 4 << 10
	fill := map[string]gen.Generator{
		"w0":      gen.Noisy64{NoiseBits: 8, HiStep: 1}, // 2-sector entries: 2x
		"w1":      gen.Zeros{},                          // mostly zero: 16x
		"ballast": gen.Random{},                         // incompressible: stays 1x
	}
	handles := map[string]*Handle{}
	data := map[string][]byte{}
	for _, name := range []string{"w0", "w1", "ballast"} { // shards 0, 1, 0
		h, err := p.Malloc(name, size, core.Target1x)
		if err != nil {
			t.Fatal(err)
		}
		data[name] = make([]byte, size)
		fill[name].Fill(data[name], gen.NewRNG(3, 1))
		if _, err := h.WriteAt(data[name], 0); err != nil {
			t.Fatal(err)
		}
		handles[name] = h
	}
	stray, err := core.NewDevice(core.Config{DeviceBytes: 64 << 10}).Malloc("w0", size, core.Target1x)
	if err != nil {
		t.Fatal(err)
	}
	plan := core.PlanReprofile(allocsOf(p), core.FinalDesign())
	if len(plan.Decisions) != 2 {
		t.Fatalf("plan = %+v, want decisions for w0 and w1", plan.Decisions)
	}
	plan.Decisions = append(plan.Decisions, core.ReprofileDecision{Alloc: stray, Old: core.Target1x, New: core.Target2x})
	st, err := p.ApplyReprofile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 2 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want 2 applied / 1 skipped", st)
	}
	if w0, w1, b := handles["w0"].Target(), handles["w1"].Target(), handles["ballast"].Target(); w0 != core.Target2x || w1 != core.Target16x || b != core.Target1x {
		t.Fatalf("targets after fan-out: w0 %s, w1 %s, ballast %s; want 2x, 16x, 1x", w0, w1, b)
	}
	if stray.Target() != core.Target1x {
		t.Errorf("the allocation outside the pool went to %s", stray.Target())
	}
	// Data survives the migrations.
	for name, h := range handles {
		got := make([]byte, size)
		if _, err := h.ReadAt(got, 0); err != nil || !bytes.Equal(got, data[name]) {
			t.Fatalf("%s after migration: err=%v match=%v", name, err, bytes.Equal(got, data[name]))
		}
	}
}

// TestConcurrentServeStress is the -race proof for the serving layer:
// concurrent clients mix synchronous and asynchronous I/O and lifecycle
// churn across shards, through a fill deep enough to trigger spill-over.
func TestConcurrentServeStress(t *testing.T) {
	p := newTestPool(t, 4, nil)
	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, 20<<10)
			pattern(buf, byte(c))
			got := make([]byte, len(buf))
			for r := 0; r < rounds; r++ {
				// 8 clients x 20 KiB on 4 x 64 KiB shards: more than half
				// the fleet per round, so least-used placement must spill.
				h, err := p.Malloc(fmt.Sprintf("c%dr%d", c, r), int64(len(buf)), core.Target1x)
				if err != nil {
					errs <- err
					return
				}
				half := int64(len(buf) / 2)
				if _, err := h.WriteAt(buf[:half], 0); err != nil { // sync
					errs <- err
					return
				}
				fw := p.SubmitWrite(h, buf[half:], half) // async
				if _, err := fw.Wait(); err != nil {
					errs <- err
					return
				}
				fr := p.SubmitRead(h, got, 0)
				if _, err := fr.Wait(); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, buf) {
					errs <- fmt.Errorf("client %d round %d: read-back mismatch", c, r)
					return
				}
				_ = p.Stats() // concurrent telemetry reads
				if err := h.Close(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Allocs != 0 {
		t.Fatalf("leaked allocations: %d", st.Allocs)
	}
}
