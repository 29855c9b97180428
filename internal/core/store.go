package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"buddy/internal/compress"
)

// The stream store keeps an allocation's framed streams: per entry a slot
// reference and a length — five pointer-free bytes, entry i of both under
// entry i's shard lock — and the bytes in chunks that never move, cut into
// slots of whole granules. A slot's class is a function of the length it
// holds, so there is no capacity to store and a rewrite within a class, every
// steady-state write of a serving loop, is a copy in place under the shard
// lock alone; only a first write or a change of class takes mu. Slots are
// never split, merged or lent: an allocation holds at most one slot per entry
// for every class its entries have been in (ROADMAP item 1).
const (
	// granuleBytes, the unit slots are cut in, is the 8 B zero-page word: the
	// smallest thing §3.4 stores for an entry, so a constant and not a knob.
	// An all-zero entry's 1-byte stream costs one; a 32 B sector, four.
	granuleBytes = compress.ZeroPageBytes
	maxClass     = (MaxStreamBytes + granuleBytes - 1) / granuleBytes
	// chunkShift makes a chunk 2048 granules, 16 KiB: the half chunk an
	// allocation leaves unfilled is under 1 B per entry from 8 Ki entries up.
	chunkShift = 11
	// maxStoreEntries keeps every slot reference inside a uint32 whatever is
	// written: a class has a slot carved only when none of its own is vacant,
	// so at most one per entry, chunk tails on top.
	maxStoreEntries = math.MaxUint32 / (maxClass*(maxClass+1)/2 + maxClass)
	_               = uint8(MaxStreamBytes) // a stream's length is kept in a byte
)

// classOf is the slot class of an n-byte stream: its size in granules.
func classOf(n int) int { return (n + granuleBytes - 1) / granuleBytes }

type streamStore struct {
	slot   []uint32 // 1 + the slot's first granule, counted across the chunks; 0: never written
	length []uint8  // the stream's length, and with it the slot's class

	// The chunks in order, a table only ever appended to and published
	// afresh: a reader, under its entry's shard lock alone, finds its slot's
	// chunk in whichever table it loads, listed before the slot was handed
	// out. An allocation that fits in less than a chunk has smaller chunks.
	shift  uint8 // log2 of a chunk's granules
	chunks atomic.Pointer[[][]byte]

	// mu, a leaf below the entry shards, guards the free lists, the cursor
	// and the table's growth — not slot, length or any stream byte; no codec
	// call or other lock is taken under it.
	mu     sync.Mutex
	cursor uint32                 // the first granule never handed out
	free   [maxClass + 1][]uint32 // per class: the references of vacated slots
}

// init sizes the store, part of its Allocation, for entries entries.
func (s *streamStore) init(entries int) {
	s.slot, s.length, s.shift = make([]uint32, entries), make([]uint8, entries), chunkShift
	if worst := entries * maxClass; worst < 1<<chunkShift {
		s.shift = uint8(bits.Len(uint(worst - 1)))
	}
	s.chunks.Store(new([][]byte))
}

// at returns the chunk from slot ref's first byte on.
func (s *streamStore) at(ref uint32) []byte {
	g := ref - 1
	return (*s.chunks.Load())[g>>s.shift][g&(1<<s.shift-1)*granuleBytes:]
}

// get returns entry i's stream, nil if it was never written: the store's own
// bytes, the caller's only while it holds entry i's shard lock.
//
//buddy:hotpath
func (s *streamStore) get(i int) []byte {
	if s.slot[i] == 0 {
		return nil
	}
	return s.at(s.slot[i])[:s.length[i]]
}

// put makes stream — 1 to MaxStreamBytes bytes, not the store's own — entry
// i's. Caller holds entry i's shard lock.
//
//buddy:hotpath
func (s *streamStore) put(i int, stream []byte) {
	if c := classOf(len(stream)); s.slot[i] == 0 || c != classOf(int(s.length[i])) {
		s.reslot(i, c)
	}
	copy(s.at(s.slot[i]), stream)
	s.length[i] = uint8(len(stream))
}

// reslot moves entry i to a slot of the given class: its old slot, if any,
// joins its class's free list; the new one is the class's most recently
// vacated or, when there is none, carved at the cursor, in a chunk made and
// listed here. A chunk's tail too short for it becomes a vacant slot.
func (s *streamStore) reslot(i, class int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.slot[i]; old != 0 {
		c := classOf(int(s.length[i]))
		s.free[c] = append(s.free[c], old)
	}
	if f := s.free[class]; len(f) > 0 {
		s.slot[i], s.free[class] = f[len(f)-1], f[:len(f)-1]
		return
	}
	per := uint32(1) << s.shift
	if room := per - s.cursor&(per-1); room < uint32(class) {
		s.free[room] = append(s.free[room], s.cursor+1)
		s.cursor += room
	}
	if tbl := s.chunks.Load(); int(s.cursor>>s.shift) == len(*tbl) {
		grown := append(*tbl, make([]byte, granuleBytes<<s.shift))
		s.chunks.Store(&grown)
	}
	s.slot[i] = s.cursor + 1
	s.cursor += uint32(class)
}

// errStream refuses a framed stream of n bytes for entry i: no entry holds an
// empty one or one past MaxStreamBytes, whichever codec framed it.
func (a *Allocation) errStream(i, n int) error {
	return fmt.Errorf("core: entry %d of %s: a framed stream of %d bytes, want 1 to %d: %w",
		i, a.Name, n, MaxStreamBytes, compress.ErrCorrupt)
}
