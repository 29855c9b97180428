package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"buddy/internal/compress"
)

// The stream store keeps an allocation's framed streams behind one flat
// index: five pointer-free bytes per entry, entry i's under entry i's shard
// lock — a length, and four bytes that are the stream itself when it is that
// short (class 0, inline: the small-string optimisation, which is where most
// codecs' all-zero entry lands, though the store knows nothing of codecs or of
// zero) and the reference of its slot otherwise. Slots are whole granules of
// chunks that never move, and a slot's class is a function of the length it
// holds, so there is no capacity to store: a rewrite within a class, every
// steady-state write of a serving loop, is a copy in place under the shard
// lock alone, and so is any write of an inline stream over another or over a
// never-written entry. Only an entry entering or leaving a slotted class takes
// mu, once for a metadata line's entries. Slots are never split, merged
// or lent: an allocation holds at most one slot per entry for every slotted
// class its entries have been in (ROADMAP item 5).
const (
	// granuleBytes, the unit slots are cut in, is the 8 B zero-page word: the
	// smallest thing §3.4 stores for an entry, so a constant and not a knob.
	// A 32 B sector takes four.
	granuleBytes = compress.ZeroPageBytes
	maxClass     = (MaxStreamBytes + granuleBytes - 1) / granuleBytes
	// inlineBytes is what the index holds in a slot reference's place, so the
	// index does not grow to have it; indexBytes is an entry's share of it.
	inlineBytes = 4
	indexBytes  = 1 + inlineBytes
	// chunkShift makes a chunk 2048 granules, 16 KiB: the half chunk an
	// allocation leaves unfilled is under 1 B per entry from 8 Ki entries up.
	chunkShift = 11
	// maxStoreEntries keeps every slot reference inside a uint32 whatever is
	// written: a class has a slot carved only when none of its own is vacant,
	// so at most one per entry, chunk tails on top.
	maxStoreEntries = math.MaxUint32 / (maxClass*(maxClass+1)/2 + maxClass)
	_               = uint8(MaxStreamBytes) // a stream's length is kept in a byte
)

// classOf is the slot class of an n-byte stream: its size in granules, 0 for
// one the index holds itself (and for none: a never-written entry has no slot).
func classOf(n int) int {
	if n <= inlineBytes {
		return 0
	}
	return (n + granuleBytes - 1) / granuleBytes
}

type streamStore struct {
	// Entry i's indexBytes: its stream's length, 0 while never written, then
	// the stream itself if inlineBytes hold it, else its slot's first granule,
	// counted across the chunks, little-endian.
	index []byte

	// The chunks in order, a table only ever appended to and published
	// afresh: a reader, under its entry's shard lock alone, finds its slot's
	// chunk in whichever table it loads, listed before the slot was handed
	// out. An allocation that fits in less than a chunk has smaller chunks.
	shift  uint8 // log2 of a chunk's granules
	chunks atomic.Pointer[[][]byte]

	// mu, a leaf below the entry shards, guards the free lists, the cursor
	// and the table's growth — not the index or any stream byte; no codec
	// call or other lock is taken under it.
	mu     sync.Mutex
	cursor uint32                 // the first granule never handed out
	free   [maxClass + 1][]uint32 // per class: the references of vacated slots
}

// init sizes the store, part of its Allocation, for entries entries.
func (s *streamStore) init(entries int) {
	s.index, s.shift = make([]byte, indexBytes*entries), chunkShift
	if worst := entries * maxClass; worst < 1<<chunkShift {
		s.shift = uint8(bits.Len(uint(worst - 1)))
	}
	s.chunks.Store(new([][]byte))
}

// entry is entry i's bytes of the index, capped: nothing appended to a slice
// of them reaches the next entry's.
func (s *streamStore) entry(i int) []byte {
	return s.index[i*indexBytes:][:indexBytes:indexBytes]
}

// at returns the chunk from the first byte of the slot e refers to on.
func (s *streamStore) at(e []byte) []byte {
	g := binary.LittleEndian.Uint32(e[1:])
	return (*s.chunks.Load())[g>>s.shift][g&(1<<s.shift-1)*granuleBytes:]
}

// written reports whether entry i holds a stream.
func (s *streamStore) written(i int) bool { return s.index[i*indexBytes] != 0 }

// get returns entry i's stream, nil if it was never written: the store's own
// bytes, the caller's only while it holds entry i's shard lock.
//
//buddy:hotpath
func (s *streamStore) get(i int) []byte {
	e := s.entry(i)
	switch n := int(e[0]); {
	case n == 0:
		return nil
	case n <= inlineBytes:
		return e[1 : 1+n : 1+n]
	default:
		return s.at(e)[:n:n]
	}
}

// put makes streams — 1 to MaxStreamBytes bytes each, none the store's own —
// the streams of entries i, i+1, …: one entry's, or a metadata line's. Caller
// holds their shard lock.
//
//buddy:hotpath
func (s *streamStore) put(i int, streams ...[]byte) {
	for k, stream := range streams {
		if classOf(len(stream)) != classOf(int(s.entry(i + k)[0])) {
			s.reslot(i+k, streams[k:])
			break
		}
	}
	for k, stream := range streams {
		e := s.entry(i + k)
		if len(stream) <= inlineBytes {
			copy(e[1:], stream)
		} else {
			copy(s.at(e), stream)
		}
		e[0] = uint8(len(stream))
	}
}

// reslot moves each entry from i on whose stream changes class, under one
// acquisition of mu: its old slot, if it had one, joins its class's free
// list; if it needs one, the new one is the class's most recently vacated or,
// when there is none, carved at the cursor, in a chunk made and listed here.
// A chunk's tail too short for it becomes a vacant slot.
func (s *streamStore) reslot(i int, streams [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, stream := range streams {
		e := s.entry(i + k)
		old, class := classOf(int(e[0])), classOf(len(stream))
		if old == class {
			continue
		}
		if old != 0 {
			s.free[old] = append(s.free[old], binary.LittleEndian.Uint32(e[1:]))
		}
		if class == 0 {
			continue
		}
		if f := s.free[class]; len(f) > 0 {
			binary.LittleEndian.PutUint32(e[1:], f[len(f)-1])
			s.free[class] = f[:len(f)-1]
			continue
		}
		per := uint32(1) << s.shift
		if room := per - s.cursor&(per-1); room < uint32(class) {
			s.free[room] = append(s.free[room], s.cursor)
			s.cursor += room
		}
		if tbl := s.chunks.Load(); int(s.cursor>>s.shift) == len(*tbl) {
			grown := append(*tbl, make([]byte, granuleBytes<<s.shift))
			s.chunks.Store(&grown)
		}
		binary.LittleEndian.PutUint32(e[1:], s.cursor)
		s.cursor += uint32(class)
	}
}

// errStream refuses a framed stream of n bytes for entry i: no entry holds an
// empty one or one past MaxStreamBytes, whichever codec framed it.
func (a *Allocation) errStream(i, n int) error {
	return fmt.Errorf("core: entry %d of %s: a framed stream of %d bytes, want 1 to %d: %w",
		i, a.Name, n, MaxStreamBytes, compress.ErrCorrupt)
}
