package buddy

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	// No options: the paper's final design — 12 GB device, 3x carve-out.
	dev := New()
	if got := dev.Carveout(); got != 3*(12<<30) {
		t.Errorf("default carve-out = %d, want %d", got, int64(3*(12<<30)))
	}
	if dev.DeviceUsed() != 0 || dev.BuddyUsed() != 0 {
		t.Error("fresh device reports usage")
	}
	primary, overflow := dev.Tiers()
	if primary.Name() != "device-slab" || overflow.Name() != "buddy-carveout" {
		t.Errorf("default tiers = %s/%s, want device-slab/buddy-carveout",
			primary.Name(), overflow.Name())
	}
	if primary.Capacity() != 12<<30 {
		t.Errorf("default device capacity = %d, want 12 GiB", primary.Capacity())
	}
}

func TestNewOptionsOverrideDefaults(t *testing.T) {
	dev := New(
		WithDeviceBytes(1<<20),
		WithCarveoutFactor(2),
		WithCodec(Codecs()[1]),
		WithMetadataCache(8<<10, 2, 2),
	)
	primary, overflow := dev.Tiers()
	if primary.Capacity() != 1<<20 {
		t.Errorf("device capacity = %d, want 1 MiB", primary.Capacity())
	}
	if overflow.Capacity() != 2<<20 {
		t.Errorf("carve-out capacity = %d, want 2 MiB", overflow.Capacity())
	}
	// Unset knobs still default: allocation works end to end.
	a, err := dev.Malloc("x", 64<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("options api round trip")
	if _, err := a.WriteAt(p, 11); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(p))
	if _, err := a.ReadAt(got, 11); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Error("facade round-trip mismatch")
	}
}

func TestWithHostFallback(t *testing.T) {
	dev := New(WithDeviceBytes(1<<20), WithHostFallback(0, 64<<10))
	_, overflow := dev.Tiers()
	if overflow.Name() != "host-um" {
		t.Fatalf("overflow tier = %s, want host-um", overflow.Name())
	}
	if dev.Carveout() >= 0 {
		t.Error("host fallback should report unbounded capacity")
	}
	// Incompressible data under an aggressive target overflows to host
	// memory and still round-trips.
	a, err := dev.Malloc("spill", 8<<10, Target4x)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, a.Size())
	for i := range data {
		data[i] = byte(i*2654435761 + i>>7)
	}
	if _, err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, a.Size())
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("host-fallback round-trip mismatch")
	}
	if tr := overflow.Traffic(); tr.Stores == 0 {
		t.Error("incompressible data at 4x should have hit the overflow tier")
	}
}

func TestNewPoolOptions(t *testing.T) {
	// Default: one shard, least-used placement — the bare-device shape.
	p1, err := NewPool(WithDeviceBytes(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	if p1.Shards() != 1 || p1.Placement().Name() != "least-used" {
		t.Fatalf("default pool: %d shards, placement %s", p1.Shards(), p1.Placement().Name())
	}

	// Sharded: every device gets the per-shard config, including its own
	// carve-out (capacities must not be shared between shards).
	p4, err := NewPool(
		WithShards(4),
		WithDeviceBytes(1<<20),
		WithCarveoutFactor(2),
		WithPlacement(PlaceRoundRobin()),
		WithQueueDepth(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p4.Close()
	st := p4.Stats()
	if len(st.Shards) != 4 || st.DeviceCapacity != 4<<20 {
		t.Fatalf("4-shard pool: %d shards, %d total capacity", len(st.Shards), st.DeviceCapacity)
	}
	for i := 0; i < 4; i++ {
		if got := p4.Device(i).Carveout(); got != 2<<20 {
			t.Fatalf("shard %d carve-out = %d, want per-shard 2 MiB", i, got)
		}
	}
	// Round-robin placement + async I/O through the public surface.
	data := []byte("pool options round trip")
	var hs []*Handle
	for i := 0; i < 4; i++ {
		h, err := p4.Malloc(fmt.Sprintf("t%d", i), 8<<10, Target2x)
		if err != nil {
			t.Fatal(err)
		}
		if h.Shard() != i {
			t.Fatalf("round-robin alloc %d on shard %d", i, h.Shard())
		}
		hs = append(hs, h)
		if _, err := p4.SubmitWrite(h, data, 64).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(data))
	if _, err := p4.SubmitRead(hs[2], got, 64).Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pool async round-trip mismatch")
	}
	// Cross-shard handle copy.
	if _, err := MemcpyHandles(hs[3], hs[0], 1<<10); err != nil {
		t.Fatal(err)
	}

	// WithHostFallback builds a distinct pager per shard.
	ph, err := NewPool(WithShards(2), WithDeviceBytes(1<<20), WithHostFallback(0, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer ph.Close()
	_, o0 := ph.Device(0).Tiers()
	_, o1 := ph.Device(1).Tiers()
	if o0 == o1 {
		t.Error("host-fallback tiers must not be shared between shards")
	}
	// WithOverflowBackend shares the one instance, by contract.
	shared := NewCarveoutBackend(1<<20, LinkConfig{})
	ps, err := NewPool(WithShards(2), WithDeviceBytes(1<<20), WithOverflowBackend(shared))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	_, s0 := ps.Device(0).Tiers()
	_, s1 := ps.Device(1).Tiers()
	if s0 != s1 || s0 != Backend(shared) {
		t.Error("WithOverflowBackend should install the shared instance on every shard")
	}
}

// TestSharedOverflowTierLedger is why buddy bytes are counted on the device
// and not only in the tier, unlike device bytes (the slab's meter is the
// device's, it has one owner): one carve-out shared by two shards meters the
// sum of their traffic, and only each shard's own Traffic says whose it was.
func TestSharedOverflowTierLedger(t *testing.T) {
	shared := NewCarveoutBackend(8<<20, LinkConfig{})
	p, err := NewPool(WithShards(2), WithDeviceBytes(1<<20), WithOverflowBackend(shared), WithPlacement(PlaceRoundRobin()))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Incompressible entries at 4x: one sector on the device, three spilled.
	// Shard 0 writes 64 entries and reads them all back, shard 1 writes 192
	// and reads a quarter.
	var want [2]Traffic
	for shard, n := range []int{64, 192} {
		h, err := p.Malloc(fmt.Sprintf("s%d", shard), int64(n)*EntryBytes, Target4x)
		if err != nil || h.Shard() != shard {
			t.Fatalf("shard %d: placed on %d, err %v", shard, h.Shard(), err)
		}
		data := make([]byte, n*EntryBytes)
		x := uint64(shard + 1)
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x >> 32)
		}
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		reads := n >> (2 * shard)
		if _, err := h.ReadAt(make([]byte, reads*EntryBytes), 0); err != nil {
			t.Fatal(err)
		}
		want[shard].BuddyWriteBytes = uint64(n) * 3 * SectorBytes
		want[shard].BuddyReadBytes = uint64(reads) * 3 * SectorBytes
	}
	var sum BackendTraffic
	for shard, st := range p.Stats().Shards {
		if st.Traffic.BuddyReadBytes != want[shard].BuddyReadBytes || st.Traffic.BuddyWriteBytes != want[shard].BuddyWriteBytes {
			t.Errorf("shard %d counts %d buddy bytes read, %d written, want its own %d and %d", shard,
				st.Traffic.BuddyReadBytes, st.Traffic.BuddyWriteBytes, want[shard].BuddyReadBytes, want[shard].BuddyWriteBytes)
		}
		sum.ReadBytes += st.Traffic.BuddyReadBytes
		sum.WrittenBytes += st.Traffic.BuddyWriteBytes
	}
	if got := shared.Traffic(); got.ReadBytes != sum.ReadBytes || got.WrittenBytes != sum.WrittenBytes {
		t.Errorf("the shared tier metered %d read, %d written, the shards' sum is %d and %d",
			got.ReadBytes, got.WrittenBytes, sum.ReadBytes, sum.WrittenBytes)
	}
}

func TestAllocationIsReaderWriterAt(t *testing.T) {
	var _ io.ReaderAt = (*Allocation)(nil)
	var _ io.WriterAt = (*Allocation)(nil)
	// And the device no longer leaks its allocation list.
	dev := New(WithDeviceBytes(1 << 20))
	if _, err := dev.Malloc("a", 4<<10, Target1x); err != nil {
		t.Fatal(err)
	}
	list := dev.Allocations()
	list[0] = nil
	if dev.Allocations()[0] == nil {
		t.Error("Allocations() returned the internal slice")
	}
}

func TestExperimentRegistry(t *testing.T) {
	reg := ExperimentRegistry()
	if len(reg) != 20 {
		t.Fatalf("registered experiments = %d, want 20", len(reg))
	}
	for _, e := range reg {
		if e.Description == "" {
			t.Errorf("experiment %s has no description", e.Name)
		}
		if e.Run == nil {
			t.Errorf("experiment %s has no run function", e.Name)
		}
	}
	if _, ok := LookupExperiment("FIG7"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := LookupExperiment("no-such"); ok {
		t.Error("lookup of unknown name should fail")
	}
	// The registry rejects corruption.
	for _, bad := range []Experiment{
		{Name: "tab1", Run: func(io.Writer, ExperimentScale) error { return nil }}, // duplicate
		{Name: "", Run: func(io.Writer, ExperimentScale) error { return nil }},     // unnamed
		{Name: "x"}, // no run function
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %+v should panic", bad)
				}
			}()
			RegisterExperiment(bad)
		}()
	}
	// Registered order is stable and drives "all".
	var sb strings.Builder
	if err := RunExperiment(&sb, "tab1", QuickScale()); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Error("registry-run experiment produced no output")
	}
}
