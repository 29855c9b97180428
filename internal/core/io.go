package core

import (
	"fmt"
	"io"
	"sync"
)

// Byte-addressed bulk I/O over the entry-granular compression pipeline.
// Allocation satisfies io.ReaderAt and io.WriterAt, so callers address
// plain byte offsets — as software does under the paper's transparent
// memory system — and never see the 128 B entry granularity. Unaligned
// edges are handled with read-modify-write of the bounding entries; the
// aligned interior of every request is routed through the parallel
// WriteEntries/ReadEntries batch primitives.
//
// Each entry operation is individually atomic with respect to concurrent
// device use; a multi-entry ReadAt/WriteAt is not a single atomic unit, and
// concurrent writers to byte ranges sharing one entry may interleave at
// entry granularity (standard torn-write semantics).

var (
	_ io.ReaderAt = (*Allocation)(nil)
	_ io.WriterAt = (*Allocation)(nil)
)

// alignedSpan returns the length of the whole-entry prefix of a request for
// want bytes at entry-aligned offset off: full in-range entries only, 0 if
// off is unaligned or past size.
func (a *Allocation) alignedSpan(off int64, want int) int {
	if off%EntryBytes != 0 || off >= a.size {
		return 0
	}
	full := min(want, int(a.size-off))
	return full - full%EntryBytes
}

// partialSpan returns the byte range of off's bounding entry covered by a
// request for want bytes, clamped to size: the read-modify-write window at
// unaligned edges and in the final padding entry.
func (a *Allocation) partialSpan(off int64, want int) (entryIdx, within, avail int) {
	entryIdx = int(off / EntryBytes)
	within = int(off % EntryBytes)
	avail = EntryBytes - within
	if rem := a.size - off; int64(avail) > rem {
		avail = int(rem)
	}
	if avail > want {
		avail = want
	}
	return entryIdx, within, avail
}

// entryScratchPool recycles the one-entry staging buffer the partial-edge
// read-modify-write paths use. A plain local array would escape through the
// codec interface call and put one heap allocation on every ReadAt/WriteAt —
// including fully aligned calls that never touch an edge.
var entryScratchPool = sync.Pool{New: func() any { return new([EntryBytes]byte) }}

// readPartial decodes the bounding entry of an unaligned edge into pooled
// scratch and copies the window starting at within into dst.
func (a *Allocation) readPartial(e, within int, dst []byte) (Cost, error) {
	buf := entryScratchPool.Get().(*[EntryBytes]byte)
	c, err := a.accessEntry(relocRead, e, buf[:])
	if err == nil {
		copy(dst, buf[within:])
	}
	entryScratchPool.Put(buf)
	return c, err
}

// writePartial read-modifies-writes the entry only partially covered by src
// at offset within, preserving the neighbouring bytes.
func (a *Allocation) writePartial(e, within int, src []byte) (Cost, error) {
	buf := entryScratchPool.Get().(*[EntryBytes]byte)
	c, err := a.accessEntry(relocRead, e, buf[:])
	if err == nil {
		copy(buf[within:within+len(src)], src)
		var w Cost
		w, err = a.accessEntry(relocWrite, e, buf[:])
		c.add(w)
	}
	entryScratchPool.Put(buf)
	return c, err
}

// Access is ReadAt and, with write, WriteAt, returning beside them what the
// operation charged the ledgers (Cost) — on an error, the cost of exactly what
// was accounted before it. len(p) bytes at byte offset off: the aligned
// interior as one span through the batch primitives — whole entries straight
// out of or into p, no read-back — and an entry only partially covered (the
// unaligned head and tail, or anything within the final padding entry) through
// the read-modify-write helpers. It stops at Size() and returns io.EOF, or
// io.ErrShortWrite, there.
//
//buddy:hotpath
func (a *Allocation) Access(p []byte, off int64, write bool) (n int, c Cost, err error) {
	if off < 0 {
		return 0, c, fmt.Errorf("core: negative offset %d", off)
	}
	kind, short := relocRead, io.EOF
	if write {
		kind, short = relocWrite, io.ErrShortWrite
	}
	for n < len(p) && off < a.size {
		var sc Cost
		step := a.alignedSpan(off, len(p)-n)
		if step > 0 {
			sc, err = a.accessEntries(kind, int(off/EntryBytes), p[n:n+step])
		} else {
			var e, within int
			e, within, step = a.partialSpan(off, len(p)-n)
			if write {
				sc, err = a.writePartial(e, within, p[n:n+step])
			} else {
				sc, err = a.readPartial(e, within, p[n:n+step])
			}
		}
		c.add(sc)
		if err != nil {
			return n, c, err
		}
		n += step
		off += int64(step)
	}
	if n < len(p) {
		return n, c, short
	}
	return n, c, nil
}

// ReadAt implements io.ReaderAt: it reads len(p) bytes starting at byte
// offset off, decompressing the covering entries — the aligned interior in
// parallel, straight into p. It returns io.EOF when the read reaches past
// Size().
func (a *Allocation) ReadAt(p []byte, off int64) (int, error) {
	n, _, err := a.Access(p, off, false)
	return n, err
}

// WriteAt implements io.WriterAt: it writes len(p) bytes starting at byte
// offset off through the compression pipeline, compressing the aligned
// interior in parallel. Entries only partially covered by the write are
// read-modified-written so neighbouring bytes are preserved. Writes past
// Size() stop short and return io.ErrShortWrite.
func (a *Allocation) WriteAt(p []byte, off int64) (int, error) {
	n, _, err := a.Access(p, off, true)
	return n, err
}

// memcpyChunkEntries sizes the Memcpy staging buffer: 512 entries (64 KB)
// per chunk, large enough for the batch primitives underneath to fan out
// across several bulk grains.
const memcpyChunkEntries = 512

// memcpyBufPool recycles Memcpy staging buffers, companion to the walker's
// span scratch pool: the bulk copy path allocates nothing in steady state.
var memcpyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, memcpyChunkEntries*EntryBytes)
		return &b
	},
}

// Memcpy copies n bytes from the start of src to the start of dst through
// both compression pipelines — the transparent-memory equivalent of
// cudaMemcpy(dst, src, n). The allocations may live on different devices.
// It returns the bytes copied; copying past either allocation's Size fails
// after the in-range prefix. Staging draws on a pooled buffer and each
// chunk's read and write fan out in parallel underneath.
func Memcpy(dst, src *Allocation, n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("core: negative memcpy length %d", n)
	}
	if n > src.Size() || n > dst.Size() {
		return 0, fmt.Errorf("core: memcpy length %d exceeds src %d or dst %d",
			n, src.Size(), dst.Size())
	}
	bp := memcpyBufPool.Get().(*[]byte)
	defer memcpyBufPool.Put(bp)
	buf := *bp
	var copied int64
	for copied < n {
		chunk := int64(len(buf))
		if rem := n - copied; chunk > rem {
			chunk = rem
		}
		if _, err := src.ReadAt(buf[:chunk], copied); err != nil {
			return copied, err
		}
		w, err := dst.WriteAt(buf[:chunk], copied)
		copied += int64(w)
		if err != nil {
			return copied, err
		}
	}
	return copied, nil
}
