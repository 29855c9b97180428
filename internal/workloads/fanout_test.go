package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buddy/internal/gen"
	"buddy/internal/memory"
)

// synthesisSHA256 is synthesisHash of every synthesis below, taken from
// the last tree that drew every region of every dump afresh (no fill was
// shared between snapshots except a run's static regions).
const synthesisSHA256 = "d1739dc82ee1ec1676616dbbcdc8fa55224a10c062fef6c05a4a98ff34b4e99f"

// synthesisHash hashes every region run and GenerateSnapshot produce for
// all of Tab. 1 at the floor size (64 pages a snapshot): each benchmark's
// ten dumps from run, then the last dump on its own, whose Dynamic regions
// take the highest snapshot seed.
func synthesisHash(run func(Benchmark, int) []*memory.Snapshot) string {
	h := sha256.New()
	write := func(s *memory.Snapshot) {
		for _, a := range s.Allocations {
			fmt.Fprintf(h, "%d/%s/%d:", s.Index, a.Name, len(a.Data))
			h.Write(a.Data)
		}
	}
	for _, b := range Table1() {
		for _, s := range run(b, 1<<20) {
			write(s)
		}
		write(GenerateSnapshot(b, Snapshots-1, 1<<20))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dumpByDump is the profile harness's shape: two clients take the ten
// snapshot numbers from one counter, request each dump with its own
// GenerateSnapshot call and hold it, so each client's dumps share the
// static fills the other's may still have in flight.
func dumpByDump(b Benchmark, scale int) []*memory.Snapshot {
	snaps := make([]*memory.Snapshot, Snapshots)
	var next atomic.Int32
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < len(snaps); t = int(next.Add(1)) - 1 {
				snaps[t] = GenerateSnapshot(b, t, scale)
			}
		}()
	}
	wg.Wait()
	return snaps
}

// collect drops what the fill table points at: it runs the collector until
// every cleanup has deleted its entry, or fails after ten seconds.
func collect(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		fillTable.mu.Lock()
		n := len(fillTable.m)
		fillTable.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fill table holds %d entries after the collector ran", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSynthesisFanOutByteIdentical: neither the fan-out nor the sharing of
// fills changes a byte. Output at GOMAXPROCS 1 (no helpers, the fills run
// in order) and 4 equals the pinned hash; so do two concurrent callers,
// dumps requested one at a time under two concurrent clients, and a pass
// drawn afresh once everything before it is collected.
func TestSynthesisFanOutByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check := func(label, got string) {
		t.Helper()
		if got != synthesisSHA256 {
			t.Errorf("%s: hash %s, want %s", label, got, synthesisSHA256)
		}
	}
	check("GOMAXPROCS 1", synthesisHash(GenerateRun))
	runtime.GOMAXPROCS(4)
	check("GOMAXPROCS 4", synthesisHash(GenerateRun))
	var both [2]string
	var wg sync.WaitGroup
	for c := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[c] = synthesisHash(GenerateRun)
		}()
	}
	wg.Wait()
	for c, got := range both {
		check(fmt.Sprintf("concurrent caller %d", c), got)
	}
	check("dump by dump, two clients", synthesisHash(dumpByDump))
	collect(t)
	check("after collection", synthesisHash(GenerateRun))
}

// TestRunMatchesDumpsDrawnApart: GenerateRun's dump t is bytewise the dump
// GenerateSnapshot(b, t) draws on its own. The run is hashed region by
// region and dropped, and the fill table is emptied before each dump is
// drawn, so no dump shares a fill with the run or with another dump.
func TestRunMatchesDumpsDrawnApart(t *testing.T) {
	sums := func(s *memory.Snapshot) [][sha256.Size]byte {
		out := make([][sha256.Size]byte, len(s.Allocations))
		for j, a := range s.Allocations {
			out[j] = sha256.Sum256(a.Data)
		}
		return out
	}
	for _, b := range Table1() {
		var run [][][sha256.Size]byte
		for _, s := range GenerateRun(b, testScale) {
			run = append(run, sums(s))
		}
		for ti, want := range run {
			collect(t)
			got := sums(GenerateSnapshot(b, ti, testScale))
			for j, r := range b.Regions {
				if got[j] != want[j] {
					t.Errorf("%s/%s: GenerateRun[%d] differs from GenerateSnapshot(%d) drawn alone", b.Name, r.Name, ti, ti)
				}
			}
		}
	}
	collect(t)
}

// TestFillsShared: two held snapshots of one benchmark share exactly their
// non-Dynamic allocations, and once both are dropped the collector empties
// the fill table.
func TestFillsShared(t *testing.T) {
	for _, b := range Table1() {
		s, u := GenerateSnapshot(b, 2, testScale), GenerateSnapshot(b, 7, testScale)
		for j, r := range b.Regions {
			if shared := s.Allocations[j] == u.Allocations[j]; shared == r.Dynamic {
				t.Errorf("%s/%s: Dynamic = %v but snapshots 2 and 7 share the allocation = %v", b.Name, r.Name, r.Dynamic, shared)
			}
		}
	}
	collect(t)
}

// TestFillsInFlightCrossWait: two calls that each share a fill the other
// has in flight both finish. Call x registers region "p", call y registers
// "q" and shares x's "p", then x shares y's "q"; each runs its fills only
// after that, concurrently, so a call that waited before filling its own
// would deadlock. The shared bytes are those a lone call draws.
func TestFillsInFlightCrossWait(t *testing.T) {
	p := Region{Name: "p", Frac: 0.5, Gen: static(gen.Noisy64{NoiseBits: 8, HiStep: 1})}
	q := Region{Name: "q", Frac: 0.5, Gen: static(gen.Weights32{Sigma: 0.02, QuantBits: 12})}
	bench := func(rs ...Region) Benchmark { return Benchmark{Name: "cross", Footprint: 1 << 20, Regions: rs} }
	shared := func() (pBytes, qBytes string) {
		var x, y synthesis
		xp := x.layout(bench(p), 0, 1)
		yqp := y.layout(bench(q, p), 0, 1)
		xq := x.layout(bench(q), 0, 1)
		if yqp.Allocations[1] != xp.Allocations[0] || xq.Allocations[0] != yqp.Allocations[0] {
			t.Fatal("the calls do not share each other's fills")
		}
		if len(x.waits) != 1 || len(y.waits) != 1 {
			t.Fatalf("x waits on %d fills, y on %d; want one each", len(x.waits), len(y.waits))
		}
		var wg sync.WaitGroup
		for _, s := range []*synthesis{&x, &y} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.run()
			}()
		}
		wg.Wait()
		return string(xp.Allocations[0].Data), string(xq.Allocations[0].Data)
	}
	wantP, wantQ := shared()
	collect(t)
	lone := GenerateSnapshot(bench(p, q), 0, 1)
	if string(lone.Allocations[0].Data) != wantP || string(lone.Allocations[1].Data) != wantQ {
		t.Error("the shared fills differ from a lone call's")
	}
}
