package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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
	n := 4*cap(s.slot) + cap(s.length) + 24*cap(tbl)
	for _, c := range tbl {
		n += cap(c)
	}
	for _, f := range s.free {
		n += 4 * cap(f)
	}
	return n
}

// checkStore holds s against the oracle: every entry reads back as the oracle
// has it, and the live slots and the vacant ones together tile the granules
// below the cursor exactly — none overlaps another, none is lost — with no
// slot across a chunk boundary.
func checkStore(t testing.TB, s *streamStore, want map[int][]byte) {
	t.Helper()
	type span struct{ lo, class uint32 }
	var spans []span
	for i := range s.slot {
		got := s.get(i)
		if !bytes.Equal(got, want[i]) || (got == nil) != (want[i] == nil) {
			t.Fatalf("entry %d reads %d bytes %.8x, want %d bytes %.8x", i, len(got), got, len(want[i]), want[i])
		}
		if got != nil {
			spans = append(spans, span{s.slot[i] - 1, uint32(classOf(len(got)))})
		}
	}
	for c, f := range s.free {
		for _, ref := range f {
			spans = append(spans, span{ref - 1, uint32(c)})
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
// every op the store is checked whole, and the allocator's two promises with
// it: a rewrite within a class takes no slot, and a class's vacant slots are
// used up before the cursor moves for it.
func storeOps(t testing.TB, entries int, ops []byte) (*streamStore, map[int][]byte) {
	t.Helper()
	s, want := new(streamStore), map[int][]byte{}
	s.init(entries)
	for k := 0; k+1 < len(ops); k += 2 {
		i, n := int(ops[k])%entries, int(ops[k+1])%(MaxStreamBytes+1)
		if n > 0 {
			c := classOf(n)
			reslots := s.slot[i] == 0 || classOf(int(s.length[i])) != c
			carves, cursor, slot := reslots && len(s.free[c]) == 0, s.cursor, s.slot[i]
			want[i] = bytes.Repeat([]byte{byte(k/2 + 1)}, n)
			s.put(i, want[i])
			if (s.cursor != cursor) != carves || (s.slot[i] != slot) != reslots {
				t.Fatalf("op %d: put of %d bytes (class %d) at entry %d: reslots=%v carves=%v, cursor %d -> %d, slot %d -> %d",
					k/2, n, c, i, reslots, carves, cursor, s.cursor, slot, s.slot[i])
			}
		}
		checkStore(t, s, want)
	}
	return s, want
}

// TestStoreModel is the store against its oracle: the lengths at the class
// and sector edges, same-class rewrites, a shrink and a grow on one entry,
// then a seeded random sequence — on a store with full-size chunks and on one
// small enough to have chunks of its own size. Afterwards every entry is put
// into another class and back, repeatedly: the store's bytes come back to
// exactly what they were.
func TestStoreModel(t *testing.T) {
	for _, entries := range []int{3, 200} {
		ops := []byte{0, 8, 0, 9, 0, 8, 0, 128, 0, 129, 0, 192, 0, 192, 0, 185, 0, 1, 0, 192, 1, 0, 1, 8}
		r := gen.NewRNG(20, uint64(entries))
		for k := 0; k < 6000; k++ {
			ops = append(ops, byte(r.Intn(entries)), byte(r.Intn(MaxStreamBytes+1)))
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

// TestStoreClassWalkBound walks a whole allocation through five classes in
// bulk — zero words, raw frames, two sizes between, the longest stream — the
// way a buffer reused for one tensor after another goes. Slots serve their
// own class alone, so each class visited strands a slot per entry: the store
// grows by exactly that class's granules per entry (chunk tails on top) the
// first time round and by nothing the second, and never past the sum over
// the classes it has seen — the limit ROADMAP item 1 records.
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
			if got, want := s.ownedBytes(), int(s.cursor+1<<s.shift)*granuleBytes+(5+8*5)*entries+1<<12; got > want {
				t.Fatalf("round %d, %d-byte streams: the store owns %d bytes, want at most %d", round, n, got, want)
			}
		}
	}
	t.Logf("after classes 1, 17, 5, 9, 24: %d granules, %.1f store bytes per entry (a buffer per entry kept its largest: about %d)",
		s.cursor, float64(s.ownedBytes())/entries, 24+208)
}

// FuzzStoreOps is the same oracle over arbitrary op bytes.
func FuzzStoreOps(f *testing.F) {
	f.Add(uint8(2), []byte{0, 8, 0, 9, 1, 192, 0, 8, 1, 1})
	f.Add(uint8(199), []byte{7, 192, 8, 191, 7, 0, 9, 23, 7, 24, 8, 25})
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
