package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"buddy/internal/race"
)

// atProcs runs the rest of t at GOMAXPROCS p.
func atProcs(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// counted counts how often each piece ran.
type counted []atomic.Int32

func (c counted) Do(i int) { c[i].Add(1) }

func (c counted) check(t *testing.T) {
	t.Helper()
	for i := range c {
		if n := c[i].Load(); n != 1 {
			t.Fatalf("piece %d of %d ran %d times, want once", i, len(c), n)
		}
	}
}

func TestEveryPieceOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		atProcs(t, procs)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			c := make(counted, n)
			Run(n, c)
			c.check(t)
		}
		// Concurrent callers share the helpers.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					c := make(counted, 50+g*31+round)
					Run(len(c), c)
					c.check(t)
				}
			}(g)
		}
		wg.Wait()
	}
}

// ordered records the order its pieces ran in.
type ordered []int

func (o *ordered) Do(i int) { *o = append(*o, i) }

func TestOnePieceAtATimeInOrderAtOneProc(t *testing.T) {
	atProcs(t, 1)
	var o ordered
	Run(100, &o)
	for i, got := range o {
		if got != i {
			t.Fatalf("piece %d ran at step %d: %v", got, i, o)
		}
	}
	if len(o) != 100 {
		t.Fatalf("%d pieces ran, want 100", len(o))
	}
}

// peak records the most goroutines inside its pieces at once; each piece
// spins for a while, so helpers have time to join.
type peak struct {
	in, max atomic.Int32
}

func (p *peak) Do(int) {
	n := p.in.Add(1)
	for m := p.max.Load(); n > m && !p.max.CompareAndSwap(m, n); m = p.max.Load() {
	}
	for k := 0; k < 5000; k++ {
		if p.in.Load() < 0 {
			panic("unreachable")
		}
	}
	p.in.Add(-1)
}

// TestAtMostGOMAXPROCSInside pins the idle-core guard: a caller at
// GOMAXPROCS 4 never has more than four goroutines inside its pieces at
// once, itself included, and the process holds at most three helpers
// however many Runs it made.
func TestAtMostGOMAXPROCSInside(t *testing.T) {
	atProcs(t, 4)
	before := runtime.NumGoroutine()
	var p peak
	for round := 0; round < 10; round++ {
		Run(64, &p)
	}
	if m := p.max.Load(); m > 4 {
		t.Fatalf("%d goroutines inside a job at once at GOMAXPROCS 4", m)
	}
	if n := runtime.NumGoroutine() - before; n > 3 {
		t.Fatalf("fan-outs at GOMAXPROCS 4 left %d more goroutines, want at most 3 helpers", n)
	}
}

// TestHelpersJoin shows the fan-out fans out: at GOMAXPROCS 2 a lone
// caller's long job is joined by a helper.
func TestHelpersJoin(t *testing.T) {
	atProcs(t, 2)
	for attempt := 0; attempt < 50; attempt++ {
		var p peak
		Run(200, &p)
		if p.max.Load() >= 2 {
			return
		}
	}
	t.Fatal("no helper joined a 200-piece job in 50 attempts at GOMAXPROCS 2")
}

// nested runs a Run of inner pieces as each of its own pieces.
type nested struct{ inner []counted }

func (x *nested) Do(i int) { Run(len(x.inner[i]), x.inner[i]) }

func TestNestedRunCompletes(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		atProcs(t, procs)
		x := &nested{inner: make([]counted, 16)}
		for i := range x.inner {
			x.inner[i] = make(counted, 1+i*7)
		}
		Run(len(x.inner), x)
		for _, c := range x.inner {
			c.check(t)
		}
	}
}

type nop struct{ n atomic.Int64 }

func (j *nop) Do(int) { j.n.Add(1) }

func TestSteadyStateRunZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if race.Enabled {
		t.Skip("race instrumentation allocates (sync.Pool drops items under -race)")
	}
	atProcs(t, 4)
	j := new(nop)
	for i := 0; i < 10; i++ {
		Run(64, j) // starts the helpers; not measured
	}
	if n := testing.AllocsPerRun(200, func() { Run(64, j) }); n != 0 {
		t.Errorf("steady-state Run allocates %.1f/op, want 0", n)
	}
}
