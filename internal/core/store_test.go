package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buddy/internal/compress"
	"buddy/internal/gen"
	"buddy/internal/race"
)

// corruptStream cuts entry i's stored stream down to its first n bytes, the
// way the decode-error tests damage an entry: a truncated copy, put back.
func corruptStream(a *Allocation, i, n int) {
	a.store.put(i, bytes.Clone(a.store.get(i)[:n]))
}

// ownedBytes is every heap byte the store holds: the index, the chunk table,
// the chunks and the free lists.
func (s *streamStore) ownedBytes() int {
	tbl := *s.chunks.Load()
	n := cap(s.index) + 24*cap(tbl)
	for _, c := range tbl {
		n += cap(c)
	}
	for _, f := range s.free {
		n += 4 * cap(f)
	}
	return n
}

// slotOf is the reference in entry i's index bytes: a slot's first granule
// when the entry's class is not 0, part of the stream or stale otherwise.
func (s *streamStore) slotOf(i int) uint32 {
	return binary.LittleEndian.Uint32(s.entry(i)[1:])
}

// checkStore holds s against the oracle: every entry reads back as the oracle
// has it — an inline one from the index, with no room to append into its
// neighbour — and the live slots and the vacant ones together tile the
// granules below the cursor exactly — none overlaps another, none is lost,
// inline entries hold none — with no slot across a chunk boundary.
func checkStore(t testing.TB, s *streamStore, want map[int][]byte) {
	t.Helper()
	type span struct{ lo, class uint32 }
	var spans []span
	for i := 0; i < len(s.index)/indexBytes; i++ {
		got := s.get(i)
		if !bytes.Equal(got, want[i]) || (got == nil) != (want[i] == nil) || s.written(i) != (want[i] != nil) {
			t.Fatalf("entry %d reads %d bytes %.8x (written=%v), want %d bytes %.8x", i, len(got), got, s.written(i), len(want[i]), want[i])
		}
		if cap(got) != len(got) {
			t.Fatalf("entry %d: a %d-byte stream in a slice of capacity %d", i, len(got), cap(got))
		}
		if c := classOf(len(got)); c != 0 {
			spans = append(spans, span{s.slotOf(i), uint32(c)})
		} else if got != nil && &got[0] != &s.index[i*indexBytes+1] {
			t.Fatalf("entry %d: a %d-byte stream kept outside the index", i, len(got))
		}
	}
	for c, f := range s.free {
		for _, ref := range f {
			spans = append(spans, span{ref, uint32(c)})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return int(a.lo) - int(b.lo) })
	next := uint32(0)
	for _, sp := range spans {
		if sp.lo != next || sp.class == 0 {
			t.Fatalf("slot of class %d at granule %d, the one before it ends at %d", sp.class, sp.lo, next)
		}
		if next = sp.lo + sp.class; sp.lo>>s.shift != (next-1)>>s.shift {
			t.Fatalf("slot of class %d at granule %d straddles a chunk of %d", sp.class, sp.lo, 1<<s.shift)
		}
	}
	if next != s.cursor {
		t.Fatalf("slots tile %d granules, the cursor is at %d", next, s.cursor)
	}
}

// storeOps drives a fresh store of the given size through ops — two bytes
// each, an entry and a length, 0 for a read — beside a map oracle. After
// every op the store is checked whole, and the allocator's promises with it:
// a rewrite within a class takes no slot, a class's vacant slots are used up
// before the cursor moves for it, an inline put moves neither the cursor nor
// a free list unless it vacates the entry's slot, and then exactly that one.
func storeOps(t testing.TB, entries int, ops []byte) (*streamStore, map[int][]byte) {
	t.Helper()
	s, want := new(streamStore), map[int][]byte{}
	s.init(entries)
	vacant := func() (n int) {
		for _, f := range s.free {
			n += len(f)
		}
		return n
	}
	for k := 0; k+1 < len(ops); k += 2 {
		i, n := int(ops[k])%entries, int(ops[k+1])%(MaxStreamBytes+1)
		if n > 0 {
			old, c := classOf(len(want[i])), classOf(n)
			carves, cursor, slot, free := c != old && c != 0 && len(s.free[c]) == 0, s.cursor, s.slotOf(i), vacant()
			takes := slot // the slot it should end up in, if its class has one
			if c != old && !carves && c != 0 {
				takes = s.free[c][len(s.free[c])-1]
			}
			want[i] = bytes.Repeat([]byte{byte(k/2 + 1)}, n)
			s.put(i, want[i])
			if carves {
				takes = s.cursor - uint32(c)
			}
			if (s.cursor != cursor) != carves || c != 0 && s.slotOf(i) != takes {
				t.Fatalf("op %d: put of %d bytes (class %d -> %d) at entry %d: carves=%v, cursor %d -> %d, slot %d -> %d, want %d",
					k/2, n, old, c, i, carves, cursor, s.cursor, slot, s.slotOf(i), takes)
			}
			if c == 0 {
				if old != 0 {
					free++ // its own slot, the last one vacated
				}
				if vacant() != free || old != 0 && s.free[old][len(s.free[old])-1] != slot {
					t.Fatalf("op %d: inline put of %d bytes at entry %d of class %d: %d vacant slots, want %d, its own slot %d the last",
						k/2, n, i, old, vacant(), free, slot)
				}
			}
		}
		checkStore(t, s, want)
	}
	return s, want
}

// TestStoreModel is the store against its oracle: the lengths at the inline,
// class and sector edges, same-class rewrites, a shrink and a grow on one
// entry, then a seeded random sequence — on a store with full-size chunks and
// on one small enough to have chunks of its own size. Afterwards every entry
// is put into another class and back, repeatedly: the store's bytes come back
// to exactly what they were.
func TestStoreModel(t *testing.T) {
	for _, entries := range []int{3, 200} {
		ops := []byte{0, 8, 0, 9, 0, 8, 0, 128, 0, 129, 0, 192, 0, 192, 0, 185, 0, 1, 0, 192, 1, 0, 1, 8,
			1, 4, 1, 5, 1, 4, 1, 3, 2, 4, 2, 2, 2, 5, 2, 1, 2, 0}
		r := gen.NewRNG(20, uint64(entries))
		for k := 0; k < 6000; k++ {
			n := r.Intn(MaxStreamBytes + 1)
			if k%3 == 0 {
				n = r.Intn(2 * granuleBytes) // about the inline edge, where the zero streams are
			}
			ops = append(ops, byte(r.Intn(entries)), byte(n))
		}
		s, want := storeOps(t, entries, ops)
		if len(*s.chunks.Load()) < 2 {
			t.Fatalf("%d entries: the sequence did not fill more than one chunk", entries)
		}
		there := bytes.Repeat([]byte{0xA5}, MaxStreamBytes)
		cycle := func() (cursor uint32, owned int) {
			for i := 0; i < entries; i++ {
				if n := len(want[i]); classOf(n) == maxClass {
					s.put(i, there[:1])
				} else if n > 0 {
					s.put(i, there)
				}
			}
			for i := 0; i < entries; i++ {
				if want[i] != nil {
					s.put(i, want[i])
				}
			}
			checkStore(t, s, want)
			return s.cursor, s.ownedBytes()
		}
		// The first cycle may carve the slots the excursion needs; the second
		// finds them vacant, the third repeats the second move for move.
		grown, _ := cycle()
		cursor, second := cycle()
		if _, third := cycle(); cursor != grown || second != third {
			t.Errorf("%d entries: cursor %d then %d, store bytes %d then %d over repeated put/put-back cycles: want both flat",
				entries, grown, cursor, second, third)
		}
	}
}

// TestStorePairPut holds a metadata pair's put — both streams under one
// acquisition of the store's lock at most — to two single puts on a twin
// store, over a seeded sequence dense about the inline edge: same index
// bytes, same cursor, same free lists after every pair.
func TestStorePairPut(t *testing.T) {
	const entries = 40
	pair, twin, want := new(streamStore), new(streamStore), map[int][]byte{}
	pair.init(entries)
	twin.init(entries)
	r := gen.NewRNG(21, 1)
	length := func() int {
		if r.Intn(2) == 0 {
			return 1 + r.Intn(2*granuleBytes)
		}
		return 1 + r.Intn(MaxStreamBytes)
	}
	for k := 0; k < 4000; k++ {
		i := 2 * r.Intn(entries/2)
		want[i], want[i+1] = bytes.Repeat([]byte{byte(k)}, length()), bytes.Repeat([]byte{byte(k + 1)}, length())
		pair.put(i, want[i], want[i+1])
		twin.put(i, want[i])
		twin.put(i+1, want[i+1])
		checkStore(t, pair, want)
		if !bytes.Equal(pair.index, twin.index) || pair.cursor != twin.cursor || !reflect.DeepEqual(pair.free, twin.free) {
			t.Fatalf("pair %d: a pair put of %d and %d bytes at entry %d left the store unlike two single puts", k, len(want[i]), len(want[i+1]), i)
		}
	}
}

// TestStoreClassWalkBound walks a whole allocation through five classes in
// bulk — zero words, raw frames, two sizes between, the longest stream — the
// way a buffer reused for one tensor after another goes. Slots serve their
// own class alone, so each slotted class visited strands a slot per entry —
// the zero words, inline, strand nothing: the store grows by exactly that
// class's granules per entry (chunk tails on top) the first time round and by
// nothing the second, and never past the sum over the classes it has seen —
// the limit ROADMAP item 5 records.
func TestStoreClassWalkBound(t *testing.T) {
	const entries = 5000
	s := new(streamStore)
	s.init(entries)
	stream := bytes.Repeat([]byte{0x5A}, MaxStreamBytes)
	var seen uint32
	for round := 0; round < 2; round++ {
		for _, n := range []int{1, 129, 40, 72, MaxStreamBytes} {
			before := s.cursor
			for i := 0; i < entries; i++ {
				s.put(i, stream[:n])
			}
			if round == 0 {
				seen += uint32(classOf(n))
			}
			tails := uint32(len(*s.chunks.Load())) * (maxClass - 1)
			if grew := s.cursor - before; round == 1 && grew != 0 || s.cursor > entries*seen+tails {
				t.Fatalf("round %d, %d-byte streams: cursor %d -> %d, want at most %d granules per entry plus %d of tails",
					round, n, before, s.cursor, seen, tails)
			}
			if got, want := s.ownedBytes(), int(s.cursor+1<<s.shift)*granuleBytes+(indexBytes+8*4)*entries+1<<12; got > want {
				t.Fatalf("round %d, %d-byte streams: the store owns %d bytes, want at most %d", round, n, got, want)
			}
		}
	}
	t.Logf("after classes 0, 17, 5, 9, 24: %d granules, %.1f store bytes per entry (a buffer per entry kept its largest: about %d)",
		s.cursor, float64(s.ownedBytes())/entries, 24+208)
}

// FuzzStoreOps is the same oracle over arbitrary op bytes; the seeds cross
// the inline edge both ways, from a slot and from nothing.
func FuzzStoreOps(f *testing.F) {
	f.Add(uint8(2), []byte{0, 8, 0, 9, 1, 192, 0, 8, 1, 1})
	f.Add(uint8(199), []byte{7, 192, 8, 191, 7, 0, 9, 23, 7, 24, 8, 25})
	f.Add(uint8(3), []byte{0, 4, 0, 5, 0, 4, 1, 5, 1, 4, 1, 5, 2, 1, 2, 2, 0, 9, 2, 8, 0, 0})
	f.Add(uint8(0), []byte{0, 5, 0, 4, 0, 3, 0, 5, 0, 192, 0, 1, 0, 8})
	f.Fuzz(func(t *testing.T, entries uint8, ops []byte) {
		storeOps(t, 1+int(entries), ops)
	})
}

// TestStoreClassFlipsUnderReaders flips entries between slot classes — a
// zero entry's one granule and a raw frame's seventeen — from writers on
// distinct shards, so the allocator's lock is contended, while readers check
// entries nobody writes and that a flipping entry is always one image or the
// other. Run under -race at -cpu 1,4.
func TestStoreClassFlipsUnderReaders(t *testing.T) {
	const writers, entries, flips = 4, 4 * entryShards, 300
	d := newBulkDevice(t, 16<<20)
	a, err := d.Malloc("flips", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	images := [2][]byte{make([]byte, EntryBytes), fillEntries(1, []gen.Generator{gen.Random{}}, 3)}
	still := fillEntries(entries, relocShapes, 5)
	for w := 0; w < writers; w++ {
		copy(still[2*w*EntryBytes:], images[1])
		copy(still[(2*w+2*entryShards)*EntryBytes:], images[1])
	}
	if err := a.WriteEntries(0, still); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var ww, rw sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for k := 0; k < flips; k++ {
				for _, i := range []int{2 * w, 2*w + 2*entryShards} { // one shard per writer
					if err := a.WriteEntry(i, images[k&1]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		rw.Add(1)
		go func(r int) {
			defer rw.Done()
			got := make([]byte, EntryBytes)
			for i := 0; !done.Load(); i = (i + 1) % entries {
				if err := a.ReadEntry(i, got); err != nil {
					t.Error(err)
					return
				}
				flipping := i%(2*entryShards) < 2*writers && i%2 == 0
				switch {
				case flipping && (bytes.Equal(got, images[0]) || bytes.Equal(got, images[1])):
				case !flipping && bytes.Equal(got, still[i*EntryBytes:][:EntryBytes]):
				default:
					t.Errorf("entry %d (flipping=%v) read back as neither of its images", i, flipping)
					return
				}
			}
		}(r)
	}
	ww.Wait()
	done.Store(true)
	rw.Wait()
}

// TestFirstWriteAllocs pins what a first touch costs the heap: writing a
// fresh 64 Ki-entry allocation once takes chunks and free-list growth — under
// one heap object per hundred entries, where a buffer per entry took one each.
func TestFirstWriteAllocs(t *testing.T) {
	if race.Enabled || testing.CoverMode() != "" {
		t.Skip("instrumentation allocates")
	}
	const entries = 64 << 10
	d := newBulkDevice(t, 64<<20)
	a, err := d.Malloc("fresh", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	data := fillEntries(entries, relocShapes, 9)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := a.WriteEntries(0, data); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > entries/100 {
		t.Errorf("first write of %d entries made %d heap allocations, want at most %d", entries, n, entries/100)
	}
}

// TestMallocSizeLimit pins the one limit the store puts on an allocation:
// maxStoreEntries entries — every slot reference then fits its uint32 even
// if each class strands a slot per entry — is taken, one byte more refused
// with the limit in the error. (Untouched, the index costs no memory.)
func TestMallocSizeLimit(t *testing.T) {
	const limit = int64(maxStoreEntries) * EntryBytes
	if worst := uint64(maxStoreEntries) * (maxClass*(maxClass+1)/2 + maxClass); worst > 1<<32-1 {
		t.Fatalf("%d entries can strand %d granules, past a uint32", maxStoreEntries, worst)
	}
	d := NewDevice(Config{DeviceBytes: 4 * limit})
	a, err := d.Malloc("most", limit, Target1x)
	if err != nil || a.EntryCount != maxStoreEntries {
		t.Fatalf("Malloc of the limit: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc("more", limit+1, Target1x); err == nil || !strings.Contains(err.Error(), fmt.Sprint(limit)) {
		t.Errorf("Malloc of one byte more: %v, want a refusal naming the limit %d", err, limit)
	}
}

// longCodec is a caller-supplied codec that breaks the length contract: an
// entry starting 0xFF is framed one byte past MaxStreamBytes, one starting
// 0xFE as nothing at all.
type longCodec struct{ compress.Codec }

func (c longCodec) AppendCompressed(dst, entry []byte) ([]byte, int) {
	switch entry[0] {
	case 0xFF:
		return append(dst, make([]byte, MaxStreamBytes+1)...), EntryBytes * 8
	case 0xFE:
		return dst, 0
	}
	return c.Codec.AppendCompressed(dst, entry)
}

// TestStreamLengthContract pins the refusal of a stream no entry can hold,
// before anything commits: a write whose codec over-emits (or emits nothing)
// fails naming the entry, with the entries before it stored and charged and
// nothing of it or after it; ImportEntry takes MaxStreamBytes and refuses one
// more; a move that has to re-frame for such a codec is handed back.
func TestStreamLengthContract(t *testing.T) {
	for _, first := range []byte{0xFF, 0xFE} {
		d := NewDevice(Config{DeviceBytes: 1 << 20, Codec: longCodec{compress.NewBPC()}})
		a, err := d.Malloc("c", 8*EntryBytes, Target2x)
		if err != nil {
			t.Fatal(err)
		}
		data := fillEntries(6, []gen.Generator{gen.Ramp{Start: 1, Step: 3}}, 1)
		data[3*EntryBytes] = first // the upper half of the pair (2, 3)
		err = a.WriteEntries(0, data)
		if !errors.Is(err, compress.ErrCorrupt) || !strings.Contains(err.Error(), "entry 3 of c") {
			t.Fatalf("write with a %#x entry: %v, want ErrCorrupt naming entry 3 of c", first, err)
		}
		if w := d.Traffic().Writes; w != 3 {
			t.Errorf("%d writes charged, want the 3 before the refused entry", w)
		}
		for i := 0; i < 6; i++ {
			if got := a.store.get(i) != nil; got != (i < 3) {
				t.Errorf("entry %d stored=%v after the refused write", i, got)
			}
		}
		got := make([]byte, 3*EntryBytes)
		if err := a.ReadEntries(0, got); err != nil || !bytes.Equal(got, data[:len(got)]) {
			t.Errorf("the entries before the refused one: err=%v", err)
		}
	}

	d := newBulkDevice(t, 1<<20)
	a, err := d.Malloc("i", 4*EntryBytes, Target1x)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ImportEntry(1, make([]byte, MaxStreamBytes), 4); err != nil {
		t.Errorf("import of a MaxStreamBytes stream: %v", err)
	}
	err = a.ImportEntry(2, make([]byte, MaxStreamBytes+1), 4)
	if !errors.Is(err, compress.ErrCorrupt) || !strings.Contains(err.Error(), "entry 2 of i") || a.store.get(2) != nil {
		t.Errorf("import of a longer one: %v (stored=%v), want ErrCorrupt naming entry 2 of i, nothing stored", err, a.store.get(2) != nil)
	}

	entry := fillEntries(1, []gen.Generator{gen.Random{}}, 2)
	entry[0] = 0xFF
	if err := a.WriteEntry(0, entry); err != nil {
		t.Fatal(err)
	}
	long := NewDevice(Config{DeviceBytes: 1 << 20, Codec: longCodec{compress.NewBDI()}})
	err = a.MoveTo(long)
	if !errors.Is(err, compress.ErrCorrupt) || !strings.Contains(err.Error(), "entry 0") || a.Device() != d || long.DeviceUsed() != 0 {
		t.Errorf("move onto an over-emitting codec: %v, on d=%v, %d bytes left reserved", err, a.Device() == d, long.DeviceUsed())
	}
	if got := make([]byte, EntryBytes); a.ReadEntry(0, got) != nil || !bytes.Equal(got, entry) {
		t.Error("the entry did not survive the handed-back move")
	}
}

// TestRelocationHeapFlat settles what PR 11 measured and nobody re-measured:
// the relocate workload's host bytes per entry doubled between its round 3
// and its round 36. A mixed fleet goes through 33 rounds of everything that
// moves an allocation — out to another device, retargeted there and back, a
// quarter of it freed, re-created and rewritten, the device failed and
// recovered, home again. Relocation changes no stream's class and a
// re-created allocation starts a fresh store, so the bytes the stores own at
// round 33 are exactly those at round 3; the heap as a whole (in-use spans
// after two collections, as the benchmark reads it) stays within 5 %.
func TestRelocationHeapFlat(t *testing.T) {
	if race.Enabled || testing.Short() {
		t.Skip("33 relocation rounds; heap readings mean nothing under -race")
	}
	home, away := newBulkDevice(t, 64<<20), newBulkDevice(t, 64<<20)
	defer home.Close()
	defer away.Close()
	const fleet = 12
	var allocs [fleet]*Allocation
	var data [fleet][]byte
	// Inline-sized spans: a span the pool fans out carves slots in the order
	// its workers interleave, which moves a chunk's tail.
	write := func(a *Allocation, data []byte) {
		for lo := 0; lo < len(data); lo += bulkGrainEntries * EntryBytes {
			if err := a.WriteEntries(lo/EntryBytes, data[lo:min(lo+bulkGrainEntries*EntryBytes, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := range allocs {
		entries := 300 + 450*k // the first quarter is the smallest
		data[k] = fillEntries(entries, relocShapes, uint64(k))
		a, err := home.Malloc(fmt.Sprintf("f%d", k), int64(len(data[k])), AllRatios[k%3])
		if err != nil {
			t.Fatal(err)
		}
		allocs[k] = a
		write(a, data[k])
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	reading := func() (owned int, heap uint64) {
		for k, a := range allocs {
			got := make([]byte, len(data[k]))
			if err := a.ReadEntries(0, got); err != nil || !bytes.Equal(got, data[k]) {
				t.Fatalf("%s after relocation: err=%v match=%v", a.Name, err, bytes.Equal(got, data[k]))
			}
			owned += a.store.ownedBytes()
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return owned, ms.HeapInuse
	}
	var owned3 int
	var heap3 uint64
	for round := 1; round <= 33; round++ {
		for k, a := range allocs {
			must(a.MoveTo(away))
			target := a.Target()
			_, err := away.Retarget(a, AllRatios[(k+1)%3])
			must(err)
			_, err = away.Retarget(a, target)
			must(err)
			if k < fleet/4 {
				must(a.Close())
				a, err = away.Malloc(a.Name, int64(len(data[k])), target)
				must(err)
				allocs[k] = a
				write(a, data[k])
			}
		}
		away.Fail()
		_, _, err := away.Recover()
		must(err)
		for _, a := range allocs {
			must(a.MoveTo(home))
		}
		switch owned, heap := reading(); round {
		case 3:
			owned3, heap3 = owned, heap
		case 33:
			t.Logf("store-owned bytes %d -> %d, HeapInuse %d -> %d between round 3 and round 33", owned3, owned, heap3, heap)
			if owned != owned3 {
				t.Errorf("the stores own %d bytes at round 33, %d at round 3: want them equal", owned, owned3)
			}
			if float64(heap) > 1.05*float64(heap3) {
				t.Errorf("HeapInuse %d at round 33, %d at round 3: grew more than 5 %%", heap, heap3)
			}
		}
	}
}

// decodeCounter counts a codec's decodes. A wrapper is by construction outside
// compress's table of zero encodings, so behind one the zero fast path is off:
// the reference world of TestZeroReadNoDecode.
type decodeCounter struct {
	compress.Codec
	decodes *atomic.Int64
}

func (c decodeCounter) DecompressInto(dst, comp []byte) error {
	c.decodes.Add(1)
	return c.Codec.DecompressInto(dst, comp)
}

// TestZeroReadNoDecode reads a span of written-zero, never-written and
// non-zero entries, over a sub-batch edge and an odd pair, under every
// built-in codec: the read that clears a written zero entry without decoding
// it returns the same bytes and charges the same Traffic and the same
// BackendTraffic on both tiers as the one that decodes every written entry,
// fast path defeated by a wrapper codec — which counts one decode per written
// entry and none for the never-written. (The fast side cannot be counted: a
// counting codec is a wrapper. BenchmarkReadEntry/zeros pins its cost.) A zero
// entry is still a written one — exported as its stream — and a zero stream cut
// short is not a zero stream: it decodes, and fails naming the entry.
func TestZeroReadNoDecode(t *testing.T) {
	const entries, gapLo, gapHi = spanBatchEntries + 75, 40, 61
	data := fillEntries(entries, []gen.Generator{gen.Zeros{}, gen.Random{}, gen.Zeros{}, gen.Zeros{}, gen.Ramp{Start: 3, Step: 11}}, 7)
	clear(data[gapLo*EntryBytes : gapHi*EntryBytes])
	type reading struct {
		got            []byte
		traffic        Traffic
		slab, overflow BackendTraffic
	}
	for _, codec := range compress.Registry() {
		var decodes atomic.Int64
		read := func(c compress.Codec) (*Allocation, reading) {
			d := NewDevice(Config{DeviceBytes: 16 << 20, Codec: c})
			t.Cleanup(func() { d.Close() })
			a, err := d.Malloc("z", entries*EntryBytes, Target4x)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.WriteEntries(0, data[:gapLo*EntryBytes]); err != nil {
				t.Fatal(err)
			}
			if err := a.WriteEntries(gapHi, data[gapHi*EntryBytes:]); err != nil {
				t.Fatal(err)
			}
			d.ResetTraffic()
			r := reading{got: bytes.Repeat([]byte{0xEE}, len(data))}
			if err := a.ReadEntries(0, r.got); err != nil {
				t.Fatal(err)
			}
			slab, overflow := d.Tiers()
			r.traffic, r.slab, r.overflow = d.Traffic(), slab.Traffic(), overflow.Traffic()
			return a, r
		}
		a, fast := read(codec)
		_, slow := read(decodeCounter{codec, &decodes})
		if !bytes.Equal(fast.got, data) || !reflect.DeepEqual(fast, slow) {
			t.Errorf("%s: read back right=%v; traffic %+v / %+v / %+v, decoding every entry %+v / %+v / %+v",
				codec.Name(), bytes.Equal(fast.got, data), fast.traffic, fast.slab, fast.overflow, slow.traffic, slow.slab, slow.overflow)
		}
		if n := decodes.Load(); n != entries-(gapHi-gapLo) {
			t.Errorf("%s: %d decodes behind the wrapper, want one per written entry: %d", codec.Name(), n, entries-(gapHi-gapLo))
		}
		zero, _ := compress.AppendZeroEntry(nil, codec)
		if s, _, written, err := a.ExportEntry(0, nil); err != nil || !written || !bytes.Equal(s, zero) {
			t.Errorf("%s: a written zero entry exports as %x (written=%v, err=%v), want its stream %x", codec.Name(), s, written, err, zero)
		}
		if _, _, written, _ := a.ExportEntry(gapLo, nil); written {
			t.Errorf("%s: a never-written entry exports as written", codec.Name())
		}
	}

	d := newBulkDevice(t, 1<<20)
	a, err := d.Malloc("cut", 4*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteEntries(0, make([]byte, 4*EntryBytes)); err != nil {
		t.Fatal(err)
	}
	corruptStream(a, 2, 1)
	err = a.ReadEntries(0, make([]byte, 4*EntryBytes))
	if !errors.Is(err, compress.ErrCorrupt) || !strings.Contains(err.Error(), "entry 2 of cut") {
		t.Errorf("read of a zero stream cut to 1 byte: %v, want ErrCorrupt naming entry 2 of cut", err)
	}
}

// TestZeroFirstWriteTakesNoStoreLock holds the store's allocator lock and
// writes zeros: the first load of a fresh allocation and a rewrite of a loaded
// one both finish, the streams living in the index; a stream that needs a slot
// waits for the lock, which is what shows the zeros did not.
func TestZeroFirstWriteTakesNoStoreLock(t *testing.T) {
	const entries = 3 * bulkGrainEntries
	d := newBulkDevice(t, 1<<20)
	a, err := d.Malloc("z", entries*EntryBytes, Target2x)
	if err != nil {
		t.Fatal(err)
	}
	write := func(data []byte) chan error {
		done := make(chan error, 1)
		go func() { done <- a.WriteEntries(0, data) }()
		return done
	}
	zeros := make([]byte, entries*EntryBytes)
	a.store.mu.Lock()
	for _, pass := range []string{"first write", "rewrite"} {
		select {
		case err := <-write(zeros):
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s of zeros waits for the store's lock", pass)
		}
	}
	slotted := write(fillEntries(entries, []gen.Generator{gen.Random{}}, 1))
	select {
	case <-slotted:
		t.Error("a write of raw frames finished with the store's lock held")
	case <-time.After(50 * time.Millisecond):
	}
	a.store.mu.Unlock()
	if err := <-slotted; err != nil {
		t.Fatal(err)
	}
	if a.store.cursor == 0 {
		t.Error("raw frames took no slot")
	}
}
