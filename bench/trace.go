package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Tracing is done from the benchmark's side of every layer boundary: one
// span per call bench/ makes into a layer's public functions, plus the
// round and region/op spans that cause them. Each client goroutine appends
// to its own spanBuf (no locks, no clock reads beyond the ones the
// untraced pass already takes), the main goroutine owns buffer 0, and
// everything stays in memory until the run ends.
//
// A span's self time is its duration minus the part of it that its child
// spans cover (children of one goroutine are sequential; the round span's
// children are the clients running in parallel, so coverage is an interval
// union). Spans inside internal/ do not exist yet; a layer whose children
// are inside the program gets its self time by replay differential
// instead (layers.go).

// Span names. The prefix before the first dot is the layer the call
// enters; "bench" spans are the benchmark's own structure.
const (
	spRound = iota
	spClient
	spRegion
	spOp
	spSubmitWrite
	spSubmitRead
	spWait
	spMigrate
	spRetarget
	spChurn
	spKill
	spRecover
	spDrain
	spGenerateRun
	spGenerate
	spBuild
	spProfile
	spReplay
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRound:       "bench.round",
	spClient:      "bench.client",
	spRegion:      "bench.region",
	spOp:          "bench.op",
	spSubmitWrite: "pool.SubmitWrite",
	spSubmitRead:  "pool.SubmitRead",
	spWait:        "pool.Wait",
	spMigrate:     "pool.MigrateHandle",
	spRetarget:    "core.Retarget",
	spChurn:       "pool.CloseMallocWrite",
	spKill:        "pool.Kill",
	spRecover:     "pool.Recover",
	spDrain:       "pool.DrainReopen",
	spGenerateRun: "workloads.GenerateRun",
	spGenerate:    "workloads.GenerateSnapshot",
	spBuild:       "analysis.BuildRun",
	spProfile:     "core.ProfileMeasure",
	spReplay:      "bench.replay",
}

// span is one recorded interval. parent indexes the same buffer; -1 hangs
// the span under the current round span (buffer 0's open root).
type span struct {
	name       uint8
	parent     int32
	op         int32
	start, end int64
}

// spanBuf is one goroutine's append-only span log. A nil *spanBuf is the
// untraced pass: every method is a no-op on it.
type spanBuf struct {
	tid   int
	spans []span
}

// add records a closed span and returns its index (for use as a parent).
func (b *spanBuf) add(name int, parent int32, op int, start, end int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: uint8(name), parent: parent, op: int32(op), start: start, end: end})
	return int32(len(b.spans) - 1)
}

// open records a span whose end is filled in by done.
func (b *spanBuf) open(name int, parent int32, op int, start int64) int32 {
	return b.add(name, parent, op, start, start)
}

func (b *spanBuf) done(id int32, end int64) {
	if b != nil && id >= 0 {
		b.spans[id].end = end
	}
}

// layerTime is the per-span-name aggregate a traced pass folds into.
type layerTime struct {
	count       int64
	total, self int64
}

// tracer owns the buffers of one traced pass.
type tracer struct {
	bufs []*spanBuf // bufs[0] is the main goroutine's
	agg  [numSpanNames]layerTime
	// kept holds the spans written to the trace file: the first traced
	// round in full (capped), so the file stays loadable.
	kept     []keptSpan
	keptFull bool
}

// maxKeptSpans caps the trace file (~100 B of JSON per span).
const maxKeptSpans = 250000

type keptSpan struct {
	span
	tid   int
	id    int
	label string // layer replays carry their probe name here
}

func newTracer(clients int) *tracer {
	t := &tracer{}
	for i := 0; i <= clients; i++ {
		t.bufs = append(t.bufs, &spanBuf{tid: i})
	}
	return t
}

// main and client return a goroutine's buffer; on a nil tracer they return
// the nil (untraced) buffer.
func (t *tracer) main() *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[0]
}

func (t *tracer) client(c int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[c+1]
}

// covered returns how much of [lo, hi) the intervals cover; iv must be
// sorted by start.
func covered(lo, hi int64, iv [][2]int64) int64 {
	var sum int64
	edge := lo
	for _, x := range iv {
		s, e := max(x[0], edge), min(x[1], hi)
		if e > s {
			sum += e - s
			edge = e
		}
	}
	return sum
}

// selfTimes computes each span's self time within one buffer: duration
// minus its children's durations. One goroutine's spans never overlap
// unless one contains the other, so within a buffer the children's
// durations are exactly the part of the parent they cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// fold closes one traced round: it aggregates every buffer's spans by name
// (total and self time), hangs the clients' root spans under the round
// span, keeps the first round's spans for the trace file and empties the
// buffers for the next round.
func (t *tracer) fold(round int, start, end int64) {
	var roots [][2]int64
	for _, b := range t.bufs {
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			a := &t.agg[s.name]
			a.count++
			a.total += s.end - s.start
			a.self += self[i]
			if s.parent < 0 {
				roots = append(roots, [2]int64{s.start, s.end})
			}
		}
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a][0] < roots[b][0] })
	r := &t.agg[spRound]
	r.count++
	r.total += end - start
	r.self += end - start - covered(start, end, roots)

	if !t.keptFull {
		t.kept = append(t.kept, keptSpan{span: span{name: spRound, parent: -1, op: int32(round), start: start, end: end}, tid: 0, id: spanID(0, -1)})
		for _, b := range t.bufs {
			for i, s := range b.spans {
				if len(t.kept) >= maxKeptSpans {
					break
				}
				t.kept = append(t.kept, keptSpan{span: s, tid: b.tid, id: spanID(b.tid, int32(i))})
			}
		}
		t.keptFull = true
	}
	for _, b := range t.bufs {
		b.spans = b.spans[:0]
	}
}

// spanID makes a file-wide span id from a buffer and an index; index -1 is
// the round span.
func spanID(tid int, idx int32) int { return tid<<26 | int(idx+1) }

// keepReplay adds a layer replay to the trace file as a sibling of the
// round spans, on the main goroutine's track.
func (t *tracer) keepReplay(label string, start, end int64) {
	if t == nil {
		return
	}
	a := &t.agg[spReplay]
	a.count++
	a.total += end - start
	a.self += end - start
	t.kept = append(t.kept, keptSpan{span: span{name: spReplay, parent: -1, start: start, end: end}, id: len(t.kept) | 1<<40, label: label})
}

// traceEvent is one Chrome trace-event ("X" = complete event); ts and dur
// are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeFile writes the kept spans as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto). Parent links and op ids travel in args;
// nesting on a track is implied by containment.
func (t *tracer) writeFile(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","otherData":`)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	for i, k := range t.kept {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := traceEvent{
			Name: spanNames[k.name], Ph: "X", Pid: 1, Tid: k.tid,
			Ts: float64(k.start) / 1e3, Dur: float64(k.end-k.start) / 1e3,
			Args: map[string]any{"id": k.id, "op": k.op},
		}
		switch {
		case k.name == spReplay:
			ev.Name = "replay:" + k.label
		case k.name == spRound:
		case k.parent < 0:
			ev.Args["parent"] = spanID(0, -1)
		default:
			ev.Args["parent"] = spanID(k.tid, k.parent)
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
