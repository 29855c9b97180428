package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasicHitMiss(t *testing.T) {
	c := New(1024, 4, 32) // 8 sets
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	if !c.Access(31) {
		t.Fatal("same-line access should hit")
	}
	if c.Access(32) {
		t.Fatal("next line should miss")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set of 32 B lines: capacity 64 B.
	c := New(64, 2, 32)
	c.Access(0)  // A
	c.Access(32) // B
	c.Access(0)  // touch A: B is now LRU
	c.Access(64) // C evicts B
	if !c.Access(0) {
		t.Error("A should still be resident")
	}
	if c.Access(32) {
		t.Error("B should have been evicted")
	}
}

func TestProbeAndInvalidate(t *testing.T) {
	c := New(256, 2, 32)
	c.Access(100)
	if !c.Probe(100) {
		t.Error("Probe should find resident line")
	}
	h, m := c.Hits(), c.Misses()
	c.Probe(100)
	if c.Hits() != h || c.Misses() != m {
		t.Error("Probe must not update statistics")
	}
}

func TestReset(t *testing.T) {
	c := New(256, 2, 32)
	c.Access(0)
	c.Access(0)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("Reset should clear stats")
	}
	if c.Access(0) {
		t.Error("Reset should clear contents")
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4, 32) },
		func() { New(100, 3, 32) }, // 100/32=3 lines, not divisible by 3? it is; use truly invalid:
	} {
		func() {
			defer func() { _ = recover() }()
			f()
		}()
	}
	// Explicit invalid: fewer lines than ways.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity < one set")
		}
	}()
	New(32, 4, 32)
}

func TestWorkingSetBehaviour(t *testing.T) {
	// A working set within capacity must converge to ~100% hits; one far
	// beyond capacity must mostly miss under LRU with a cyclic scan.
	c := New(4096, 4, 32) // 128 lines
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 64*32; a += 32 {
			c.Access(a)
		}
	}
	if hitRate(c) < 0.70 {
		t.Errorf("small working set hit rate %.2f, want > 0.70", hitRate(c))
	}
	c.Reset()
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 1024*32; a += 32 {
			c.Access(a)
		}
	}
	if hitRate(c) > 0.10 {
		t.Errorf("thrashing scan hit rate %.2f, want ~0", hitRate(c))
	}
}

// TestAccessNMatchesAccesses drives two caches with the same random lines,
// under eviction pressure (24 lines over 8 ways): one takes each run of n
// accesses as AccessN(a, n), the other as n calls of Access(a). After every
// run they must agree on the first access's hit, on Hits, Misses and each
// line's residency, and on the clock and LRU stamps the next eviction reads.
func TestAccessNMatchesAccesses(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	runs, singles := New(256, 2, 32), New(256, 2, 32) // 4 sets of 2 ways
	for step := 0; step < 20000; step++ {
		addr, n := uint64(r.IntN(24*32)), 1+r.IntN(8)
		if r.IntN(16) == 0 {
			n = 1 + r.IntN(200)
		}
		got := runs.AccessN(addr, n)
		want := singles.Access(addr)
		for k := 1; k < n; k++ {
			if !singles.Access(addr) {
				t.Fatalf("step %d: access %d of a run missed", step, k+1)
			}
		}
		if got != want || runs.Hits() != singles.Hits() || runs.Misses() != singles.Misses() {
			t.Fatalf("step %d: AccessN(%d, %d) hit=%v with %d hits %d misses; %d Accesses hit=%v with %d hits %d misses",
				step, addr, n, got, runs.Hits(), runs.Misses(), n, want, singles.Hits(), singles.Misses())
		}
		for a := uint64(0); a < 24*32; a += 32 {
			if runs.Probe(a) != singles.Probe(a) {
				t.Fatalf("step %d: line %d resident %v after AccessN, %v after Accesses", step, a/32, runs.Probe(a), singles.Probe(a))
			}
		}
		if runs.clock != singles.clock || !slices.Equal(runs.lru, singles.lru) {
			t.Fatalf("step %d: clock %d, stamps %v after AccessN; clock %d, stamps %v after Accesses",
				step, runs.clock, runs.lru, singles.clock, singles.lru)
		}
	}
}

func TestQuickHitAfterAccess(t *testing.T) {
	// Property: immediately re-accessing any address hits.
	c := New(8192, 4, 32)
	f := func(addr uint64) bool {
		addr %= 1 << 40
		c.Access(addr)
		return c.Access(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// hitRate is hits/(hits+misses) since the last Reset.
func hitRate(c *Cache) float64 {
	return float64(c.Hits()) / float64(c.Hits()+c.Misses())
}
