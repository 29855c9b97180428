package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"buddy/internal/compress"
	"buddy/internal/gen"
	"buddy/internal/nvlink"
)

// TestDefaultDesign pins what the zero Config builds: the paper's final
// design (§3.5) with a 12 GB device — BPC, a 36 GB buddy carve-out behind
// NVLink2, and a 64 KB metadata cache in eight 4-way slices — and that the
// default tier prices modeled time exactly as the same carve-out passed in
// explicitly does.
func TestDefaultDesign(t *testing.T) {
	d := NewDevice(Config{})
	defer d.Close()
	if got, want := d.codec.Name(), compress.NewBPC().Name(); got != want {
		t.Errorf("default codec = %s, want %s", got, want)
	}
	if got := d.DeviceCapacity(); got != 12<<30 {
		t.Errorf("device slab = %d, want 12 GiB", got)
	}
	if o := d.Overflow(); o.Name() != "buddy-carveout" || o.Capacity() != 36<<30 {
		t.Errorf("overflow tier = %s of %d bytes, want a 36 GiB buddy-carveout", o.Name(), o.Capacity())
	}
	if want := nvlink.New(nvlink.DefaultConfig()).BytesPerCycle(); d.linkBytesPerCycle != want {
		t.Errorf("link rate = %v B/cycle, want NVLink2's %v", d.linkBytesPerCycle, want)
	}
	if n := len(d.mcache.slices); n != 8 {
		t.Errorf("metadata cache has %d slices, want 8", n)
	}
	ref := NewMetadataCache(64<<10, 8, 4)
	r := gen.NewRNG(1, 32)
	for i := 0; i < 1<<16; i++ {
		// Four times the entries the cache's lines cover: hits and evictions.
		e := r.Intn(4 * (64 << 10) * 8 / MetadataBitsPerEntry)
		if got, want := d.mcache.Access(e), ref.Access(e); got != want {
			t.Fatalf("access %d (entry %d): hit %v, a 64 KB 8x4-way cache says %v", i, e, got, want)
		}
	}
	if got, want := d.MetadataCacheHitRate(), ref.HitRate(); got != want || got == 0 || got == 1 {
		t.Errorf("hit rate %v, reference %v: want equal and strictly between 0 and 1", got, want)
	}
	explicit := NewDevice(Config{Overflow: NewCarveoutBackend(3*d.DeviceCapacity(), nvlink.DefaultConfig())})
	defer explicit.Close()
	for _, c := range []Cost{{1 << 20, 0, 0}, {0, 3 << 10, 1 << 10}, {4096, 96, 4 << 10}} {
		if got, want := d.Cycles(c), explicit.Cycles(c); got != want {
			t.Errorf("Cycles(%+v) = %v, the explicit carve-out prices %v", c, got, want)
		}
	}
}

func TestTargetRatioTable(t *testing.T) {
	// A target map's missing name reads as the zero value, which must be 1x.
	if TargetRatio(0) != Target1x {
		t.Fatalf("the zero TargetRatio is %s, want 1x", TargetRatio(0))
	}
	cases := []struct {
		r       TargetRatio
		sectors int
		devB    int
		buddyB  int
		value   float64
	}{
		{Target1x, 4, 128, 0, 1},
		{Target4by3x, 3, 96, 32, 4.0 / 3.0},
		{Target2x, 2, 64, 64, 2},
		{Target4x, 1, 32, 96, 4},
		{Target16x, 0, 8, 128, 16},
	}
	for _, c := range cases {
		if c.r.DeviceSectors() != c.sectors {
			t.Errorf("%s: DeviceSectors=%d want %d", c.r, c.r.DeviceSectors(), c.sectors)
		}
		if c.r.DeviceBytes() != c.devB {
			t.Errorf("%s: DeviceBytes=%d want %d", c.r, c.r.DeviceBytes(), c.devB)
		}
		if c.r.BuddySlotBytes() != c.buddyB {
			t.Errorf("%s: BuddySlotBytes=%d want %d", c.r, c.r.BuddySlotBytes(), c.buddyB)
		}
		if c.r.Value() != c.value {
			t.Errorf("%s: Value=%f want %f", c.r, c.r.Value(), c.value)
		}
	}
}

func TestTargetRatioOverflow(t *testing.T) {
	if Target2x.OverflowSectors(2) != 0 || Target2x.OverflowSectors(3) != 1 ||
		Target2x.OverflowSectors(4) != 2 {
		t.Error("2x overflow sector math wrong")
	}
	if Target16x.OverflowSectors(0) != 0 || Target16x.OverflowSectors(3) != 3 {
		t.Error("16x overflow sector math wrong")
	}
	if !Target1x.Fits(4) {
		t.Error("1x must fit any entry")
	}
}

func TestMetadataStorePacking(t *testing.T) {
	m := NewMetadataStore(100)
	for i := 0; i < 100; i++ {
		m.Set(i, i%5)
	}
	for i := 0; i < 100; i++ {
		if got := m.Get(i); got != i%5 {
			t.Fatalf("entry %d: got %d want %d", i, got, i%5)
		}
	}
	if len(m.packed) != 50 {
		t.Errorf("100 entries should pack into 50 bytes, got %d", len(m.packed))
	}
	// §3.2: 4 bits per 128 B entry, a 1/256 ≈ 0.4% storage overhead.
	if f := float64(len(m.packed)) / (100 * EntryBytes); f != 1.0/256 {
		t.Errorf("metadata overhead %.4f, want 1/256", f)
	}
}

// TestMetadataSetRejectsPastSectorsPerEntry pins Set's range: lineClasses
// reads three bit-planes, so a nibble above SectorsPerEntry would alias a
// class.
func TestMetadataSetRejectsPastSectorsPerEntry(t *testing.T) {
	m := NewMetadataStore(2)
	m.Set(1, compress.SectorsPerEntry)
	for _, bad := range []int{-1, compress.SectorsPerEntry + 1, 15} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(0, %d) did not panic", bad)
				}
			}()
			m.Set(0, bad)
		}()
	}
	if m.Get(0) != 0 || m.Get(1) != compress.SectorsPerEntry {
		t.Errorf("refused Sets changed the store: %d %d", m.Get(0), m.Get(1))
	}
}

// checkLineClasses holds every line's class masks to want, the class of each
// entry, and to Get: each entry in exactly the mask of its class, and no
// entry past the end in any but class 0.
func checkLineClasses(t *testing.T, m *MetadataStore, want []int) {
	t.Helper()
	for w := 0; w*EntriesPerMetadataLine < len(want); w++ {
		class := m.lineClasses(w)
		for b := 0; b < EntriesPerMetadataLine; b++ {
			k, c := w*EntriesPerMetadataLine+b, 0
			if k < len(want) {
				if c = want[k]; m.Get(k) != c {
					t.Fatalf("entry %d: Get %d, want %d", k, m.Get(k), c)
				}
			}
			for s, mask := range class {
				if in := mask>>b&1 == 1; in != (s == c) {
					t.Fatalf("%d entries: entry %d of class %d is in=%v the class-%d mask of line %d", len(want), k, c, in, s, w)
				}
			}
		}
	}
}

// TestLineClassesMatchGet reads random classes back as line masks at entry
// counts on both sides of a line, odd ones included, so the partial tail line
// and the unused high nibble of an odd count are covered.
func TestLineClassesMatchGet(t *testing.T) {
	r := gen.NewRNG(27, 1)
	for _, n := range []int{1, 63, 64, 65, 127, 129, 4097} {
		m, want := NewMetadataStore(n), make([]int, n)
		for k := range want {
			want[k] = r.Intn(compress.SectorsPerEntry + 1)
			m.Set(k, want[k])
		}
		checkLineClasses(t, m, want)
	}
}

// FuzzMetadataLine drives arbitrary Set sequences against a []int oracle and
// compares every line's class masks after each: two bytes per Set, the entry
// and the class.
func FuzzMetadataLine(f *testing.F) {
	f.Add(uint8(0), []byte{0, 4})
	f.Add(uint8(64), []byte{63, 3, 64, 1, 0, 2, 64, 0})
	f.Add(uint8(200), []byte{129, 4, 130, 3, 1, 1, 199, 2, 129, 0})
	f.Fuzz(func(t *testing.T, entries uint8, ops []byte) {
		n := 1 + int(entries)
		m, want := NewMetadataStore(n), make([]int, n)
		for ; len(ops) >= 2; ops = ops[2:] {
			k, c := int(ops[0])%n, int(ops[1])%(compress.SectorsPerEntry+1)
			m.Set(k, c)
			want[k] = c
			checkLineClasses(t, m, want)
		}
	})
}

// TestMetadataCacheSliceCount: the slice count is a power of two, as the
// hardware's one slice per DRAM channel is; anything else is a
// configuration error, refused like bad cache geometry.
func TestMetadataCacheSliceCount(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		mc := NewMetadataCache(64<<10, n, 4)
		if mc.Access(0) || !mc.Access(EntriesPerMetadataLine-1) {
			t.Errorf("%d slices: want a cold miss then a hit on the same line", n)
		}
	}
	for _, n := range []int{0, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMetadataCache with %d slices did not panic", n)
				}
			}()
			NewMetadataCache(64<<10, n, 4)
		}()
	}
}

func TestMetadataCachePrefetchNeighbours(t *testing.T) {
	mc := NewMetadataCache(64<<10, 8, 4)
	if mc.Access(0) {
		t.Fatal("cold metadata access should miss")
	}
	// The same 32 B line covers 64 entries: all neighbours must hit.
	for e := 1; e < EntriesPerMetadataLine; e++ {
		if !mc.Access(e) {
			t.Fatalf("entry %d should share the line with entry 0", e)
		}
	}
	if mc.Access(EntriesPerMetadataLine) {
		t.Fatal("entry 64 is a new line and should miss")
	}
}

func newTestDevice(devBytes int64) *Device {
	return NewDevice(Config{DeviceBytes: devBytes})
}

func TestMallocAccounting(t *testing.T) {
	d := newTestDevice(1 << 20)
	a, err := d.Malloc("x", 512<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if a.EntryCount != 4096 {
		t.Fatalf("entries=%d want 4096", a.EntryCount)
	}
	if d.DeviceUsed() != 256<<10 {
		t.Fatalf("device used %d, want 256 KiB", d.DeviceUsed())
	}
	if d.BuddyUsed() != 256<<10 {
		t.Fatalf("buddy used %d, want 256 KiB", d.BuddyUsed())
	}
	// A 2x-compressed 2 MiB allocation uses 1 MiB device: the device now has
	// 768 KiB free, so this must fail.
	if _, err := d.Malloc("big", 2<<20, Target2x); err == nil {
		t.Fatal("expected out-of-memory")
	}
	// Capacity win: at 4x, 3 MiB more fits (768 KiB device).
	if _, err := d.Malloc("big4x", 3<<20, Target4x); err != nil {
		t.Fatalf("4x allocation should fit: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestDevice(4 << 20)
	a, err := d.Malloc("data", 64<<10, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	gens := []gen.Generator{
		gen.Zeros{}, gen.Ramp{Step: 3}, gen.Noisy64{NoiseBits: 8, HiStep: 1},
		gen.Random{}, gen.Weights32{Sigma: 0.1, QuantBits: 12},
	}
	r := gen.NewRNG(1, 1)
	entry := make([]byte, 128)
	got := make([]byte, 128)
	for i := 0; i < a.EntryCount; i++ {
		gens[i%len(gens)].Fill(entry, r)
		if err := a.WriteEntries(i, entry); err != nil {
			t.Fatal(err)
		}
		if err := a.ReadEntries(i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(entry, got) {
			t.Fatalf("entry %d round-trip mismatch", i)
		}
	}
}

func TestUnwrittenEntriesReadZero(t *testing.T) {
	d := newTestDevice(1 << 20)
	a, _ := d.Malloc("fresh", 8<<10, Target4x)
	got := make([]byte, 128)
	if err := a.ReadEntries(5, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten entry should read as zero")
		}
	}
}

// TestAddressesStableUnderCompressibilityChange is the paper's headline
// design property (§3.3): as an entry's data changes compressibility, its
// device and buddy addresses never move and no other entry is touched.
func TestAddressesStableUnderCompressibilityChange(t *testing.T) {
	d := newTestDevice(1 << 20)
	a, _ := d.Malloc("churn", 64<<10, Target2x)
	devBefore := make([]uint64, a.EntryCount)
	budBefore := make([]uint64, a.EntryCount)
	for i := 0; i < a.EntryCount; i++ {
		devBefore[i] = a.DeviceAddress(i)
		budBefore[i] = a.BuddyAddress(i)
	}
	entry := make([]byte, 128)
	phases := []gen.Generator{
		gen.Zeros{},                          // 0 sectors
		gen.Noisy64{NoiseBits: 8, HiStep: 1}, // 2 sectors: fits 2x
		gen.Random{},                         // 4 sectors: overflows
		gen.Ramp{Step: 5},                    // back to tiny
	}
	r := gen.NewRNG(9, 1)
	for _, g := range phases {
		for i := 0; i < a.EntryCount; i += 7 {
			g.Fill(entry, r)
			if err := a.WriteEntries(i, entry); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < a.EntryCount; i++ {
			if a.DeviceAddress(i) != devBefore[i] || a.BuddyAddress(i) != budBefore[i] {
				t.Fatalf("entry %d moved after compressibility change", i)
			}
		}
	}
}

func TestTrafficSplit(t *testing.T) {
	d := newTestDevice(1 << 20)
	a, _ := d.Malloc("traffic", 8<<10, Target2x)
	entry := make([]byte, 128)

	// Compressible entry: no buddy traffic.
	gen.Ramp{Step: 2}.Fill(entry, gen.NewRNG(1, 1))
	if err := a.WriteEntries(0, entry); err != nil {
		t.Fatal(err)
	}
	tr := d.Traffic()
	if tr.BuddyWriteBytes != 0 {
		t.Errorf("compressible write produced buddy traffic: %d", tr.BuddyWriteBytes)
	}

	// Incompressible entry under 2x: 2 sectors device + 2 sectors buddy.
	gen.Random{}.Fill(entry, gen.NewRNG(2, 1))
	if err := a.WriteEntries(1, entry); err != nil {
		t.Fatal(err)
	}
	tr2 := d.Traffic()
	if got := tr2.BuddyWriteBytes - tr.BuddyWriteBytes; got != 64 {
		t.Errorf("incompressible write buddy bytes = %d, want 64", got)
	}
	if tr2.BuddyAccesses != 1 {
		t.Errorf("buddy accesses = %d, want 1", tr2.BuddyAccesses)
	}

	got := make([]byte, 128)
	if err := a.ReadEntries(1, got); err != nil {
		t.Fatal(err)
	}
	tr3 := d.Traffic()
	if rb := tr3.BuddyReadBytes; rb != 64 {
		t.Errorf("buddy read bytes = %d, want 64", rb)
	}
	if f := tr3.BuddyAccessFraction(); f <= 0 || f >= 1 {
		t.Errorf("buddy access fraction = %f, want within (0,1)", f)
	}
}

func TestZeroPageTraffic(t *testing.T) {
	d := newTestDevice(1 << 20)
	a, _ := d.Malloc("zp", 8<<10, Target16x)
	entry := make([]byte, 128)
	if err := a.WriteEntries(0, entry); err != nil { // all zero
		t.Fatal(err)
	}
	tr := d.Traffic()
	if tr.DeviceWriteBytes != 8 || tr.BuddyWriteBytes != 0 {
		t.Errorf("zero entry at 16x: dev=%d buddy=%d, want 8/0", tr.DeviceWriteBytes, tr.BuddyWriteBytes)
	}
	// Non-zero data overflows entirely to buddy.
	gen.Random{}.Fill(entry, gen.NewRNG(3, 1))
	if err := a.WriteEntries(1, entry); err != nil {
		t.Fatal(err)
	}
	tr2 := d.Traffic()
	if tr2.BuddyWriteBytes != 128 {
		t.Errorf("incompressible at 16x buddy bytes = %d, want 128", tr2.BuddyWriteBytes)
	}
	got := make([]byte, 128)
	if err := a.ReadEntries(1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, entry) {
		t.Error("16x overflow entry must still round-trip")
	}
}

func TestMetadataCacheMissTraffic(t *testing.T) {
	d := newTestDevice(8 << 20)
	a, _ := d.Malloc("meta", 4<<20, Target1x)
	entry := make([]byte, 128)
	// Touch entries one metadata line apart: every access misses.
	n := 0
	for i := 0; i+EntriesPerMetadataLine < a.EntryCount; i += EntriesPerMetadataLine * 16 {
		if err := a.WriteEntries(i, entry); err != nil {
			t.Fatal(err)
		}
		n++
	}
	tr := d.Traffic()
	if tr.MetadataFillBytes != uint64(n*MetadataLineBytes) {
		t.Errorf("metadata fills = %d bytes, want %d", tr.MetadataFillBytes, n*MetadataLineBytes)
	}
	if d.MetadataCacheHitRate() != 0 {
		t.Errorf("strided metadata accesses should all miss, hit rate %.2f", d.MetadataCacheHitRate())
	}
}

func TestCompressionRatioAccounting(t *testing.T) {
	d := newTestDevice(1 << 20)
	if _, err := d.Malloc("a", 128<<10, Target2x); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc("b", 128<<10, Target4x); err != nil {
		t.Fatal(err)
	}
	// a: 128K/2 = 64K device; b: 128K/4 = 32K device; ratio = 256/96.
	want := 256.0 / 96.0
	if got := d.CompressionRatio(); got < want-0.01 || got > want+0.01 {
		t.Errorf("compression ratio %.3f, want %.3f", got, want)
	}
}

func TestQuickDeviceRoundTrip(t *testing.T) {
	d := newTestDevice(4 << 20)
	a, _ := d.Malloc("q", 64<<10, Target2x)
	idx := 0
	f := func(raw [128]byte) bool {
		i := idx % a.EntryCount
		idx++
		if err := a.WriteEntries(i, raw[:]); err != nil {
			return false
		}
		got := make([]byte, 128)
		if err := a.ReadEntries(i, got); err != nil {
			return false
		}
		return bytes.Equal(got, raw[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeviceWithAllCompressors(t *testing.T) {
	for _, c := range compress.Registry() {
		d := NewDevice(Config{DeviceBytes: 1 << 20, Codec: c})
		a, err := d.Malloc("x", 16<<10, Target2x)
		if err != nil {
			t.Fatal(err)
		}
		entry := make([]byte, 128)
		got := make([]byte, 128)
		r := gen.NewRNG(4, 2)
		for i := 0; i < 32; i++ {
			gen.Noisy32{NoiseBits: uint(i % 24), SmoothStep: 3}.Fill(entry, r)
			if err := a.WriteEntries(i, entry); err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if err := a.ReadEntries(i, got); err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if !bytes.Equal(entry, got) {
				t.Fatalf("%s: round-trip mismatch", c.Name())
			}
		}
	}
}
