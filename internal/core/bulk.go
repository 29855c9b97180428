package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"buddy/internal/par"
)

// Batch entry primitives: WriteEntries and ReadEntries move whole spans of
// 128 B entries through the compression pipeline, fanning the codec work out
// through par.Run. Each piece is a write or read pass of the entry-table
// walker (relocate.go): compression and decompression run outside the entry
// shard locks, so pieces contend only on the striped mutexes and the batch
// scales with idle cores. ReadAt, WriteAt and Memcpy route their aligned
// spans through these primitives, which is what makes the byte-addressed
// bulk surface — and everything above it, experiment sweeps included —
// parallel for free.
//
// A pass amortizes the allocation's read lock and the traffic-counter
// updates over sub-batches of spanBatchEntries entries; the overflow tier
// is handed each sub-batch's accesses as one span, in order, once the
// sub-batch's lock has dropped. The accounting — link occupancy and pager
// faults included — is identical to per-entry execution; only the number of
// lock acquisitions and atomic operations changes. (The pager's faults
// depend on the order it sees pages in, so a host-tier device never fans a
// span out.)

// bulkGrainEntries is the smallest piece a span is cut into: 64 entries
// (8 KB). Spans below two grains run inline — handing a piece to another
// goroutine costs more than compressing a handful of entries.
const bulkGrainEntries = 64

// spanBatchEntries bounds how many entries one a.mu read-lock acquisition
// (and one traffic flush) covers inside a walker pass, so a large span
// cannot hold off Close or a relayout's cutover for its whole duration.
const spanBatchEntries = 256

// spanScratch is one pass's pooled staging: the buffers a metadata line's
// framed streams are staged in, one per entry — MaxStreamBytes each, carved
// out of one flat array, so the steady-state codec path never allocates and a
// fresh scratch is one allocation — and the sub-batch's overflow-tier op
// lists, one per tally: pooled, not on a builder's stack, because they reach
// the tier through an interface.
type spanScratch struct {
	bufs [EntriesPerMetadataLine][]byte
	flat [EntriesPerMetadataLine * MaxStreamBytes]byte
	ops  [2 * spanBatchEntries]TierOp // a same-device relayout reads the old slot and writes the new
	far  [spanBatchEntries]TierOp
}

var spanScratchPool = sync.Pool{New: func() any {
	x := new(spanScratch)
	for k := range x.bufs {
		x.bufs[k] = x.flat[k*MaxStreamBytes:][:0:MaxStreamBytes]
	}
	return x
}}

// runPass is relocate on pooled scratch: pass p over entries [lo, hi) of a.
//
//buddy:hotpath
func (a *Allocation) runPass(p *relocPass, stage []byte, lo, hi int) ([]byte, error) {
	x := spanScratchPool.Get().(*spanScratch)
	p.tally.ops, p.far.ops = x.ops[:0], x.far[:0]
	stage, err := a.relocate(p, &x.bufs, stage, lo, hi)
	spanScratchPool.Put(x)
	return stage, err
}

// entrySpan is the par.Job a span fans out as: a pass of one kind over n
// contiguous entries of one allocation, beginning at start — backed, for the
// data kinds, by one flat buffer — cut into a first piece of first entries
// and then pieces of chunk. A struct rather than a closure, and pooled, so
// dispatching a span allocates nothing. Its pieces sum what they charged and
// moved into the counters, and the first error any met into err.
type entrySpan struct {
	a            *Allocation
	kind         relocKind
	start, n     int
	first, chunk int
	data         []byte

	deviceBytes, linkRead, linkWrite atomic.Uint64
	entries, bytes                   atomic.Int64
	err                              atomic.Pointer[error]
}

var entrySpanPool = sync.Pool{New: func() any { return new(entrySpan) }}

// Do runs the span's pass over piece i. The error is copied into a
// branch-local before its address is taken: &err on the if-scoped variable
// would move it to the heap on every piece, failed or not.
//
//buddy:hotpath
func (s *entrySpan) Do(i int) {
	lo, hi := max(s.first+(i-1)*s.chunk, 0), min(s.first+i*s.chunk, s.n)
	p := relocPass{kind: s.kind, base: s.start}
	_, err := s.a.runPass(&p, s.data, s.start+lo, s.start+hi)
	s.deviceBytes.Add(p.cost.DeviceBytes)
	s.linkRead.Add(p.cost.LinkRead)
	s.linkWrite.Add(p.cost.LinkWrite)
	s.entries.Add(int64(p.entries))
	s.bytes.Add(p.bytes)
	if err != nil {
		first := err
		s.err.CompareAndSwap(nil, &first)
	}
}

// spanPass runs one pass of the walker, of any kind that takes a whole span,
// over entries [start, start+n) of a; data is the span's flat buffer for
// relocWrite and relocRead, nil otherwise. It returns what the pass charged
// and, for the relocation kinds, the entries that held a stream and their
// stored bytes — on an error, those of the entries accounted before it ended.
// A span below two bulk grains, or on a device that keeps entry order, is
// one pass on the caller with the relocPass on its stack. A longer one is
// cut into min(GOMAXPROCS, n/bulkGrainEntries) pieces of whole metadata
// lines, cut at the allocation's, and run through par.Run on a pooled
// runner. The steady state allocates nothing either way.
//
//buddy:hotpath
func (a *Allocation) spanPass(kind relocKind, start, n int, data []byte) (Cost, int, int64, error) {
	width := 1
	if n >= 2*bulkGrainEntries && !a.Device().inOrder {
		width = min(runtime.GOMAXPROCS(0), n/bulkGrainEntries)
	}
	if width <= 1 {
		p := relocPass{kind: kind, base: start}
		_, err := a.runPass(&p, data, start, start+n)
		return p.cost, p.entries, p.bytes, err
	}
	s := entrySpanPool.Get().(*entrySpan)
	s.a, s.kind, s.start, s.n, s.data = a, kind, start, n, data
	s.chunk = ((n+width-1)/width + EntriesPerMetadataLine - 1) &^ (EntriesPerMetadataLine - 1)
	s.first = s.chunk - start%EntriesPerMetadataLine
	par.Run(1+(n-s.first+s.chunk-1)/s.chunk, s)
	c := Cost{DeviceBytes: s.deviceBytes.Swap(0), LinkRead: s.linkRead.Swap(0), LinkWrite: s.linkWrite.Swap(0)}
	entries, bytes := int(s.entries.Swap(0)), s.bytes.Swap(0)
	var err error
	if p := s.err.Swap(nil); p != nil {
		err = *p
	}
	s.a, s.data = nil, nil
	entrySpanPool.Put(s)
	return c, entries, bytes, err
}

func (a *Allocation) checkEntryRange(start, n int) error {
	if start < 0 || n < 0 || start+n > a.EntryCount {
		return fmt.Errorf("core: entry range [%d,%d) out of range [0,%d)",
			start, start+n, a.EntryCount)
	}
	return nil
}

// accessEntries validates a span and runs it as a data pass, returning what
// it charged.
//
//buddy:hotpath
func (a *Allocation) accessEntries(kind relocKind, start int, data []byte) (Cost, error) {
	if len(data)%EntryBytes != 0 {
		return Cost{}, fmt.Errorf("core: batch length %d not a multiple of %d", len(data), EntryBytes)
	}
	n := len(data) / EntryBytes
	if n == 0 {
		return Cost{}, nil
	}
	if err := a.checkEntryRange(start, n); err != nil {
		return Cost{}, err
	}
	c, _, _, err := a.spanPass(kind, start, n, data)
	return c, err
}

// WriteEntries compresses and stores len(data)/128 consecutive entries
// beginning at entry index start; len(data) must be a multiple of 128.
// Sectors beyond an entry's target budget are written to its fixed overflow
// slot; no other entry is disturbed regardless of compressibility changes.
// Entries are written in parallel across idle cores (par.Run).
// Each entry write is individually atomic (the usual torn-write contract at
// 128 B granularity); on error a prefix-and-suffix subset of the span may
// have been written.
func (a *Allocation) WriteEntries(start int, data []byte) error {
	_, err := a.accessEntries(relocWrite, start, data)
	return err
}

// ReadEntries fetches and decompresses len(dst)/128 consecutive entries
// beginning at entry index start, decoding each entry straight into its slot
// of dst with no staging copies; len(dst) must be a multiple of 128. Entries
// are read in parallel across idle cores (par.Run).
func (a *Allocation) ReadEntries(start int, dst []byte) error {
	_, err := a.accessEntries(relocRead, start, dst)
	return err
}
