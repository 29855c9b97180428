package buddy

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"buddy/internal/exp"
)

func TestNewDefaults(t *testing.T) {
	// No options: the paper's final design — 12 GB device, 3x carve-out.
	dev := New()
	if got := dev.Overflow().Capacity(); got != 3*(12<<30) {
		t.Errorf("default carve-out = %d, want %d", got, int64(3*(12<<30)))
	}
	if dev.DeviceUsed() != 0 || dev.BuddyUsed() != 0 {
		t.Error("fresh device reports usage")
	}
	if name := dev.Overflow().Name(); name != "buddy-carveout" {
		t.Errorf("default overflow tier = %s, want buddy-carveout", name)
	}
	if got := dev.DeviceCapacity(); got != 12<<30 {
		t.Errorf("default device capacity = %d, want 12 GiB", got)
	}
}

func TestNewOptionsOverrideDefaults(t *testing.T) {
	dev := New(
		WithDeviceBytes(1<<20),
		WithCodec(Codecs()[1]),
	)
	if got := dev.DeviceCapacity(); got != 1<<20 {
		t.Errorf("device capacity = %d, want 1 MiB", got)
	}
	// The carve-out follows the device size at the fixed 3x (§3.2).
	if got := dev.Overflow().Capacity(); got != 3<<20 {
		t.Errorf("carve-out capacity = %d, want 3 MiB", got)
	}
	// A full slab refuses by its tier name.
	if _, err := dev.Malloc("big", 4<<20, Target2x); !errors.Is(err, ErrOutOfMemory) || !strings.Contains(err.Error(), "device-slab") {
		t.Errorf("oversized Malloc: %v, want ErrOutOfMemory naming device-slab", err)
	}
	// Everything else defaults: allocation works end to end.
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
	overflow := dev.Overflow()
	if overflow.Name() != "host-um" {
		t.Fatalf("overflow tier = %s, want host-um", overflow.Name())
	}
	if overflow.Capacity() >= 0 {
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
		if got := p4.Device(i).Overflow().Capacity(); got != 3<<20 {
			t.Fatalf("shard %d carve-out = %d, want per-shard 3 MiB", i, got)
		}
		if i > 0 && p4.Device(i).Overflow() == p4.Device(0).Overflow() {
			t.Fatalf("shard %d shares shard 0's carve-out", i)
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
	if _, err := Memcpy(hs[3].Alloc(), hs[0].Alloc(), 1<<10); err != nil {
		t.Fatal(err)
	}

	// WithHostFallback builds a distinct pager per shard.
	ph, err := NewPool(WithShards(2), WithDeviceBytes(1<<20), WithHostFallback(0, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer ph.Close()
	if ph.Device(0).Overflow() == ph.Device(1).Overflow() {
		t.Error("host-fallback tiers must not be shared between shards")
	}
	// WithOverflowBackend shares the one instance, by contract.
	shared := NewCarveoutBackend(1<<20, LinkConfig{})
	ps, err := NewPool(WithShards(2), WithDeviceBytes(1<<20), WithOverflowBackend(shared))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if s0, s1 := ps.Device(0).Overflow(), ps.Device(1).Overflow(); s0 != s1 || s0 != Backend(shared) {
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
		// A shard's modeled time prices its own ledger, not the shared meter.
		own := p.Device(shard).Cycles(Cost{
			DeviceBytes: st.Traffic.DeviceReadBytes + st.Traffic.DeviceWriteBytes,
			LinkRead:    st.Traffic.BuddyReadBytes,
			LinkWrite:   st.Traffic.BuddyWriteBytes,
		})
		if st.ServiceCycles != own {
			t.Errorf("shard %d ServiceCycles = %.1f, want %.1f from its own ledger", shard, st.ServiceCycles, own)
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

// TestExperimentRegistry checks the static experiment table: the paper's
// twenty experiments in paper order, each with a description and a run
// function, names unique case-insensitively (a literal table can repeat a
// name silently), and exp.Experiments handing out a copy.
func TestExperimentRegistry(t *testing.T) {
	paperOrder := []string{"tab1", "tab2", "fig3", "sparse", "fig5b", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13a", "fig13b", "fig13c", "fig13d", "reprofile", "serve", "heal", "qos"}
	reg := exp.Experiments()
	if len(reg) != len(paperOrder) {
		t.Fatalf("experiments = %d, want %d", len(reg), len(paperOrder))
	}
	seen := map[string]bool{}
	for i, e := range reg {
		if e.Name != paperOrder[i] {
			t.Errorf("experiment %d is %q, want %q", i, e.Name, paperOrder[i])
		}
		if key := strings.ToLower(e.Name); seen[key] {
			t.Errorf("experiment name %q repeats", e.Name)
		} else {
			seen[key] = true
		}
		if e.Description == "" {
			t.Errorf("experiment %s has no description", e.Name)
		}
		if e.Run == nil {
			t.Errorf("experiment %s has no run function", e.Name)
		}
	}
	reg[0] = exp.Experiment{}
	if exp.Experiments()[0].Name != "tab1" {
		t.Error("exp.Experiments returned the table itself")
	}
	var sb strings.Builder
	if err := exp.Run(&sb, "TAB1", exp.Quick); err != nil {
		t.Fatalf("names should match case-insensitively: %v", err)
	}
	if sb.Len() == 0 {
		t.Error("tab1 produced no output")
	}
}
