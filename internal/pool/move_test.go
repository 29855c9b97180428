package pool

import (
	"slices"
	"sort"
	"testing"

	"buddy/internal/core"
	"buddy/internal/gen"
)

// migrationBytes reads every shard's cumulative Traffic.MigrationBytes.
func migrationBytes(p *Pool) []uint64 {
	out := make([]uint64, p.Shards())
	for i := range out {
		out[i] = p.Device(i).Traffic().MigrationBytes
	}
	return out
}

// TestEvacuationOrder ranks synthetic loads: the source, draining and
// failed shards are left out, the most free device bytes come first, and
// ties go in shard order. On random fleets of up to 12 shards the ranking
// is the one a sort.Slice by free bytes gives, which below 13 elements is
// an insertion sort and so stable too.
func TestEvacuationOrder(t *testing.T) {
	loads := []ShardLoad{
		{DeviceCapacity: 1000},                  // the source, emptiest of all
		{DeviceCapacity: 1000, DeviceUsed: 900}, // 100 free
		{DeviceCapacity: 1000, Draining: true},
		{DeviceCapacity: 1000, Failed: true},
		{DeviceCapacity: 1000, DeviceUsed: 700}, // 300 free
		{DeviceCapacity: 1000, DeviceUsed: 900}, // 100 free, ties 1
		{DeviceCapacity: 1000, DeviceUsed: 700}, // 300 free, ties 4
	}
	for i := range loads {
		loads[i].Shard = i
	}
	if got, want := evacuationOrder(loads, 0), []int{4, 6, 1, 5}; !slices.Equal(got, want) {
		t.Fatalf("evacuationOrder = %v, want %v", got, want)
	}
	if got := evacuationOrder(loads[:1], 0); len(got) != 0 {
		t.Fatalf("a lone source has destinations %v", got)
	}

	rng := gen.NewRNG(5, 0)
	for trial := 0; trial < 2000; trial++ {
		loads := make([]ShardLoad, 1+rng.Intn(12))
		for i := range loads {
			loads[i] = ShardLoad{
				Shard:          i,
				DeviceCapacity: 4,
				DeviceUsed:     int64(rng.Intn(5)),
				Draining:       rng.Intn(6) == 0,
				Failed:         rng.Intn(6) == 0,
			}
		}
		from := rng.Intn(len(loads))
		var cands []ShardLoad
		for i, l := range loads {
			if i != from && l.available() {
				cands = append(cands, l)
			}
		}
		free := func(l ShardLoad) int64 { return l.DeviceCapacity - l.DeviceUsed }
		sort.Slice(cands, func(a, b int) bool { return free(cands[a]) > free(cands[b]) })
		var want []int
		for _, c := range cands {
			want = append(want, c.Shard)
		}
		if got := evacuationOrder(loads, from); !slices.Equal(got, want) {
			t.Fatalf("loads %+v from %d: evacuationOrder = %v, sort.Slice ranks %v", loads, from, got, want)
		}
	}
}

// TestApplySkipsAMoveItsHandleLeft plans moves, lets the handle leave the
// site each was planned from, and applies them: a handle another call
// migrated, one a move retargeted, and one closed. Each is a skip — not
// applied, no error — and moves no byte on any device.
func TestApplySkipsAMoveItsHandleLeft(t *testing.T) {
	p := newTestPool(t, 3, Explicit(0))
	h, err := p.Malloc("h", 8<<10, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8<<10)
	pattern(data, 5)
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	skip := func(what string, m move) {
		t.Helper()
		before := migrationBytes(p)
		moved, applied, err := p.apply(m)
		if moved != 0 || applied || err != nil {
			t.Errorf("%s: apply = (%d, %v, %v), want a skip", what, moved, applied, err)
		}
		if after := migrationBytes(p); !slices.Equal(after, before) {
			t.Errorf("%s: MigrationBytes %v -> %v, want no byte moved", what, before, after)
		}
	}

	migrated := move{h, h.site(), site{2, core.Target2x}}
	if err := p.MigrateHandle(h, 1); err != nil {
		t.Fatal(err)
	}
	skip("moved since planned", migrated)
	if h.Shard() != 1 {
		t.Fatalf("the skipped move left the handle on shard %d, want 1", h.Shard())
	}

	retargeted := move{h, h.site(), site{1, core.Target4x}}
	if _, applied, err := p.apply(move{h, h.site(), site{1, core.Target1x}}); !applied || err != nil {
		t.Fatalf("retarget to 1x: applied %v, err %v", applied, err)
	}
	skip("retargeted since planned", retargeted)
	if h.Target() != core.Target1x {
		t.Fatalf("the skipped move left the handle at %s, want 1x", h.Target())
	}

	closed := move{h, h.site(), site{0, core.Target1x}}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	skip("closed since planned", closed)
}

// TestMovesKeepTheBooks walks a 3-shard, 2-tenant pool through every
// planner — MigrateHandle, a 2x<->4x ApplyReprofile, Drain and Reopen,
// Rebalance until it moves — and a Handle.Close. After each step every
// tenant's StoredBytes is what its live handles reserve at their targets,
// and the migration bytes that left the source of a shard change are the
// ones that arrived elsewhere.
func TestMovesKeepTheBooks(t *testing.T) {
	devices := make([]*core.Device, 3)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 256 << 10})
	}
	p, err := New(devices, Config{Placement: Explicit(0), Tenants: map[string]TenantConfig{"a": {}, "b": {}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	var handles []*Handle
	for i, spec := range []struct {
		size   int64
		target core.TargetRatio
	}{{320 << 10, core.Target4x}, {16 << 10, core.Target2x}, {16 << 10, core.Target4x}, {8 << 10, core.Target2x}} {
		door, err := p.Tenant([]string{"a", "b"}[i%2])
		if err != nil {
			t.Fatal(err)
		}
		h, err := door.Malloc("h"+string(rune('0'+i)), spec.size, spec.target)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, spec.size)
		gen.Noisy64{NoiseBits: 8, HiStep: 1}.Fill(data, gen.NewRNG(7, uint64(i)))
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	books := func(when string) {
		t.Helper()
		want := map[string]int64{}
		for _, h := range p.Handles() {
			want[h.tn.name] += quotaFor(h.Size(), h.Target())
		}
		for _, ts := range p.Stats().Tenants {
			if ts.StoredBytes != want[ts.Name] {
				t.Errorf("after %s: tenant %s StoredBytes = %d, its live handles reserve %d", when, ts.Name, ts.StoredBytes, want[ts.Name])
			}
		}
	}
	// moved checks that what left shard src arrived on the other shards.
	moved := func(when string, src int, before []uint64) {
		t.Helper()
		after := migrationBytes(p)
		var in uint64
		for i := range after {
			if i != src {
				in += after[i] - before[i]
			}
		}
		if out := after[src] - before[src]; out == 0 || out != in {
			t.Errorf("%s: %d migration bytes left shard %d, %d arrived on the others", when, out, src, in)
		}
	}
	books("Malloc")

	before := migrationBytes(p)
	if err := p.MigrateHandle(handles[1], 1); err != nil {
		t.Fatal(err)
	}
	moved("MigrateHandle", 0, before)
	books("MigrateHandle")

	flip := map[core.TargetRatio]core.TargetRatio{core.Target2x: core.Target4x, core.Target4x: core.Target2x}
	plan := &core.ReprofilePlan{}
	for _, h := range p.Handles() {
		plan.Decisions = append(plan.Decisions, core.ReprofileDecision{Alloc: h.Alloc(), Old: h.Target(), New: flip[h.Target()]})
	}
	if st, err := p.ApplyReprofile(plan); err != nil || st.Applied != len(plan.Decisions) {
		t.Fatalf("ApplyReprofile: %+v, err %v; want all %d applied", st, err, len(plan.Decisions))
	}
	books("ApplyReprofile")

	before = migrationBytes(p)
	if err := p.Drain(0); err != nil {
		t.Fatal(err)
	}
	moved("Drain", 0, before)
	if err := p.Reopen(0); err != nil {
		t.Fatal(err)
	}
	books("Drain and Reopen")

	src := handles[0].Shard()
	before = migrationBytes(p)
	for call := 1; ; call++ {
		ok, err := p.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		if call == 20 {
			t.Fatalf("Rebalance did not move in %d calls; loads %+v", call, p.Stats().Shards)
		}
	}
	moved("Rebalance", src, before)
	books("Rebalance")

	if err := handles[3].Close(); err != nil {
		t.Fatal(err)
	}
	books("Handle.Close")
}
