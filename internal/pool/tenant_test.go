package pool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"buddy/internal/core"
)

// Tenant-layer tests: admission-control quota lifecycle, weighted-fair
// share convergence at the scheduler, the anti-starvation escape valve
// under a high-priority flood, and failure-injection during tenant
// traffic (typed errors, quota books intact).

func newTenantPool(t *testing.T, shards int, tenants map[string]TenantConfig) *Pool {
	t.Helper()
	devices := make([]*core.Device, shards)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{DeviceBytes: 4 << 20})
	}
	p, err := New(devices, Config{Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// TestTenantQuotaLifecycle walks admission control through a full
// lifecycle: fill a tenant to its cap, get the typed ErrQuotaExceeded
// (with the rejection counted), free an allocation, and watch the quota
// come back — down to zero stored bytes once everything is closed.
func TestTenantQuotaLifecycle(t *testing.T) {
	const allocBytes = 64 * core.EntryBytes
	unit := quotaFor(allocBytes, core.Target2x)
	p := newTenantPool(t, 1, map[string]TenantConfig{
		"capped": {CapacityBytes: 2 * unit},
	})
	door, err := p.Tenant("capped")
	if err != nil {
		t.Fatal(err)
	}
	h1, err := door.Malloc("a1", allocBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := door.Malloc("a2", allocBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := door.Malloc("a3", allocBytes, core.Target2x); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Malloc over quota: %v, want ErrQuotaExceeded", err)
	}
	st := door.Stats()
	if st.StoredBytes != 2*unit {
		t.Errorf("StoredBytes = %d, want %d", st.StoredBytes, 2*unit)
	}
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	// The refused Malloc must not have leaked a partial charge.
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	h3, err := door.Malloc("a3", allocBytes, core.Target2x)
	if err != nil {
		t.Fatalf("Malloc after freeing quota: %v", err)
	}
	// Close is idempotent on the books: double-Close must not release the
	// charge twice.
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	_ = h2.Close()
	if err := h3.Close(); err != nil {
		t.Fatal(err)
	}
	if got := door.Stats().StoredBytes; got != 0 {
		t.Errorf("StoredBytes after closing all = %d, want 0", got)
	}
	// The default tenant's books are untouched by tenant traffic.
	if got := p.Stats().Tenants[0].StoredBytes; got != 0 {
		t.Errorf("default tenant StoredBytes = %d, want 0", got)
	}
}

// TestSchedWeightedShares drives the scheduler directly — no workers, no
// devices — and checks deficit round-robin's contract: over a serving
// prefix where every tenant stays backlogged, served bytes converge to
// the configured weights within ±10%.
func TestSchedWeightedShares(t *testing.T) {
	tens, _ := buildTenants(map[string]TenantConfig{
		"w1": {Weight: 1},
		"w2": {Weight: 2},
		"w3": {Weight: 3},
	})
	const (
		depth    = 256
		perTen   = 240
		taskSize = 4 << 10
		prefix   = 300 // tasks served while every ring stays non-empty
	)
	s := newSched(nil, tens, depth)
	buf := make([]byte, taskSize)
	// Tenant indexes 1..3 are w1..w3 (default at 0 stays idle); tag each
	// task with its tenant via off.
	for k := 0; k < perTen; k++ {
		for idx := 1; idx < len(tens); idx++ {
			if err := s.enqueue(&Future{buf: buf, off: int64(idx)}, tens[idx]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var run [maxRunTasks]*Future
	served := make([]int64, len(tens))
	total := 0
	for total < prefix {
		n := s.dequeue(&run)
		if n == 0 {
			t.Fatal("dequeue returned 0 with work queued")
		}
		for i := 0; i < n; i++ {
			served[run[i].off] += int64(len(run[i].buf))
		}
		total += n
	}
	var sum int64
	for _, b := range served {
		sum += b
	}
	weights := []int64{0, 1, 2, 3}
	for idx := 1; idx < len(tens); idx++ {
		want := float64(weights[idx]) / 6
		got := float64(served[idx]) / float64(sum)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("tenant %s share = %.3f, want %.3f +-10%%", tens[idx].name, got, want)
		}
	}
}

// TestQueueDepthNeverNegative hammers one ring from two submitters against
// one draining worker while a sampler reads the tenant's snapshot:
// TenantStats.QueueDepth counts tasks on the ring, and no interleaving of
// enqueue and dequeue may show it below zero. (It did when enqueue bumped the
// count after dropping the scheduler's lock: a worker dequeuing in between
// left -1 behind until the submitter caught up.)
func TestQueueDepthNeverNegative(t *testing.T) {
	// More Ps than a small box has cores: the window is a few instructions
	// wide, and it takes a thread descheduled inside it to show.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tens, _ := buildTenants(nil)
	tn := tens[0]
	s := newSched(nil, tens, 4)
	const perSubmitter = 100000
	var low atomic.Int64 // the lowest depth anyone saw
	sample := func() {
		if d := tn.stats(nil).QueueDepth; d < low.Load() {
			low.Store(d)
		}
	}
	stop := make(chan struct{})
	var sampler, submitters sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sample()
			}
		}
	}()
	buf := make([]byte, core.EntryBytes)
	for g := 0; g < 2; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < perSubmitter; i++ {
				if err := s.enqueue(&Future{buf: buf}, tn); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var run [maxRunTasks]*Future
	for served := 0; served < 2*perSubmitter; {
		served += s.dequeue(&run)
		sample() // the drainer sees its own decrement first of all
	}
	submitters.Wait()
	close(stop)
	sampler.Wait()
	if got := low.Load(); got < 0 {
		t.Errorf("QueueDepth read %d, want never below 0", got)
	}
	if d := tn.stats(nil).QueueDepth; d != 0 {
		t.Errorf("QueueDepth = %d after the ring drained, want 0", d)
	}
}

// TestTenantStarvationEscapeValve floods a 1-worker shard with
// high-priority traffic and requires a low-priority tenant to keep making
// progress anyway — the escape valve's anti-starvation guarantee, run
// end-to-end under -race — while the fleet Stats it serves stay consistent.
func TestTenantStarvationEscapeValve(t *testing.T) {
	p := newTenantPool(t, 1, map[string]TenantConfig{
		"hi": {Priority: 3},
	})
	hiDoor, err := p.Tenant("hi")
	if err != nil {
		t.Fatal(err)
	}
	hi, err := hiDoor.Malloc("flood", 256*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := p.Malloc("trickle", 64*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, core.EntryBytes)
	pattern(buf, 9)
	// Flood: two producers keep the high-priority ring non-empty with
	// windowed outstanding writes until told to stop.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Above inPlaceMaxBytes, so the flood is a standing backlog on
			// the high-priority ring and never runs on its submitters.
			b := make([]byte, 2*inPlaceMaxBytes)
			pattern(b, byte(w+1))
			const window = 16
			futs := make([]*Future, 0, window)
			for !stop.Load() {
				for k := 0; k < window; k++ {
					futs = append(futs, p.SubmitWrite(hi, b, int64(k*len(b))))
				}
				for _, f := range futs {
					if _, err := f.Wait(); err != nil {
						t.Error(err)
						return
					}
				}
				futs = futs[:0]
			}
		}(w)
	}
	// Every fleet snapshot taken under the flood sums its tenants once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			checkStatsSums(t, p.Stats())
			time.Sleep(100 * time.Microsecond)
		}
	}()
	// Wait until the flood is actually flowing before starting the
	// trickle, so the low-priority ops genuinely compete with it.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if hiDoor.Stats().Submitted >= 64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flood never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Trickle: 50 sequential low-priority round trips must complete while
	// the flood runs. Without the escape valve this starves forever.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := p.SubmitWrite(lo, buf, 0).Wait(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		t.Error("low-priority tenant starved: no progress in 30s under high-priority flood")
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := hiDoor.Stats(); st.Submitted == 0 {
		t.Error("flood submitted nothing; starvation test proved nothing")
	}
}

// checkStatsSums checks a Stats snapshot taken while submitters run: the
// fleet latency distribution counts exactly its tenant rows' completions,
// and no more operations ran in place than were submitted.
func checkStatsSums(t *testing.T, st Stats) {
	var count uint64
	for _, ts := range st.Tenants {
		count += ts.Latency.Count
	}
	if st.Latency.Count != count {
		t.Errorf("fleet Latency.Count = %d, tenant rows sum to %d", st.Latency.Count, count)
	}
	if st.Async.Submitted < st.Async.Inline {
		t.Errorf("Async.Submitted = %d < Inline = %d", st.Async.Submitted, st.Async.Inline)
	}
}

// TestKillDuringTenantTraffic kills a shard mid-serve under tenant
// traffic: every in-flight future completes with success or a typed
// ErrDeviceFailed, the tenant's quota books stay intact through the
// failure, and Close still returns the charge afterwards.
func TestKillDuringTenantTraffic(t *testing.T) {
	fi := NewFailureInjector()
	devices := []*core.Device{core.NewDevice(core.Config{DeviceBytes: 256 << 10})}
	p, err := New(devices, Config{Injector: fi, QueueDepth: 16, Workers: 2, Tenants: map[string]TenantConfig{
		"victim": {Priority: 1, CapacityBytes: 1 << 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	door, err := p.Tenant("victim")
	if err != nil {
		t.Fatal(err)
	}
	const allocBytes = 512 * core.EntryBytes
	h, err := door.Malloc("serve", allocBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	charged := door.Stats().StoredBytes
	if want := quotaFor(allocBytes, core.Target2x); charged != want {
		t.Fatalf("StoredBytes = %d, want %d", charged, want)
	}
	const (
		chunk   = 4 * core.EntryBytes
		nWrites = allocBytes / chunk
	)
	bufs := make([][]byte, nWrites)
	futs := make([]*Future, nWrites)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range futs {
			bufs[i] = make([]byte, chunk)
			pattern(bufs[i], byte(i+1))
			futs[i] = p.SubmitWrite(h, bufs[i], int64(i)*chunk)
		}
	}()
	if err := fi.Kill(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, f := range futs {
		if _, err := f.Wait(); err != nil && !errors.Is(err, core.ErrDeviceFailed) {
			t.Fatalf("write %d failed with untyped error: %v", i, err)
		}
	}
	// Serving failures never touch admission state: the allocation still
	// holds its reservation, so its quota charge must be unchanged.
	if got := door.Stats().StoredBytes; got != charged {
		t.Errorf("StoredBytes after kill = %d, want %d", got, charged)
	}
	if _, err := p.Recover(0); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := door.Stats().StoredBytes; got != 0 {
		t.Errorf("StoredBytes after Close = %d, want 0", got)
	}
}

// TestTenantLatencyStats smoke-checks the modeled latency plumbing: after
// served traffic a tenant's distribution is populated (count matches
// completions, percentiles ordered and non-zero) and the fleet view
// aggregates it.
func TestTenantLatencyStats(t *testing.T) {
	p := newTenantPool(t, 2, map[string]TenantConfig{"svc": {Weight: 2}})
	door, err := p.Tenant("svc")
	if err != nil {
		t.Fatal(err)
	}
	h, err := door.Malloc("lat", 64*core.EntryBytes, core.Target2x)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*core.EntryBytes)
	pattern(buf, 5)
	const ops = 32
	for i := 0; i < ops; i++ {
		if _, err := p.SubmitWrite(h, buf, int64(i%16)*core.EntryBytes).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := door.Stats()
	if st.Latency.Count != ops {
		t.Errorf("Latency.Count = %d, want %d", st.Latency.Count, ops)
	}
	if st.Latency.P50 <= 0 || st.Latency.P50 > st.Latency.P95 || st.Latency.P95 > st.Latency.P99 {
		t.Errorf("percentiles not ordered: p50=%.1f p95=%.1f p99=%.1f",
			st.Latency.P50, st.Latency.P95, st.Latency.P99)
	}
	if st.ServedBytes != ops*uint64(len(buf)) {
		t.Errorf("ServedBytes = %d, want %d", st.ServedBytes, ops*len(buf))
	}
	fleet := p.Stats()
	if fleet.Latency.Count < ops {
		t.Errorf("fleet Latency.Count = %d, want >= %d", fleet.Latency.Count, ops)
	}
	if ts := p.Stats().Tenants; len(ts) != 2 || ts[0].Name != DefaultTenant || ts[1].Name != "svc" {
		t.Errorf("Stats().Tenants = %v, want [%s svc]", ts, DefaultTenant)
	}
	if _, err := p.Tenant("nope"); err == nil {
		t.Error("Tenant(nope) succeeded, want error")
	}
	if got := h.tn.name; got != "svc" {
		t.Errorf("handle owner = %q, want svc", got)
	}
}

// TestApplyReprofileRacesMigration runs checkpoint reprofiles against a
// mover that keeps every handle — two of them sharing a name — circling the
// shards, and a churner closing and re-creating one. A plan names
// allocations, not names: a reprofile that went around the handle (through
// whichever device listed the allocation) could retarget an allocation the
// pool was about to drop, or charge a handle for a target it no longer had;
// through the handle's ctl the books must balance at every quiescent point:
// each tenant's StoredBytes is the sum of what its live handles reserve at
// their current targets, and a final reprofile with nothing racing it leaves
// every handle, both "dup"s included, at the target it names. The mover and
// the churner count what they do, and the test fails unless both ran during
// the reprofile rounds, at any GOMAXPROCS. Run under -race.
func TestApplyReprofileRacesMigration(t *testing.T) {
	p := newTenantPool(t, 3, map[string]TenantConfig{"a": {}, "b": {}})
	const allocBytes = 300 * core.EntryBytes
	data := make([]byte, allocBytes)
	pattern(data, 3)
	var handles []*Handle
	for i, name := range []string{"w0", "w1", "dup", "dup", "w4"} {
		door, err := p.Tenant([]string{"a", "b"}[i%2])
		if err != nil {
			t.Fatal(err)
		}
		h, err := door.Malloc(name, allocBytes, core.Target2x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	balanced := func(when string) {
		t.Helper()
		want := map[string]int64{}
		for _, h := range p.Handles() {
			q := quotaFor(h.Size(), h.Target())
			if got := h.quota.Load(); got != q {
				t.Errorf("%s: %s on shard %d is charged %d bytes, its %s target reserves %d", when, h.Name(), h.Shard(), got, h.Target(), q)
			}
			want[h.tn.name] += q
		}
		for _, ts := range p.Stats().Tenants {
			if ts.StoredBytes != want[ts.Name] {
				t.Errorf("%s: tenant %s StoredBytes = %d, its live handles reserve %d", when, ts.Name, ts.StoredBytes, want[ts.Name])
			}
		}
	}
	var stop atomic.Bool
	var moves, churns atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the mover
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			h := handles[i%(len(handles)-1)]
			if err := p.MigrateHandle(h, (h.Shard()+1)%p.Shards()); err != nil {
				t.Error(err)
				return
			}
			moves.Add(1)
			runtime.Gosched()
		}
	}()
	go func() { // the churner, on the last handle
		defer wg.Done()
		door, _ := p.Tenant("a")
		h := handles[len(handles)-1]
		for !stop.Load() {
			if err := h.Close(); err != nil {
				t.Error(err)
				return
			}
			var err error
			if h, err = door.Malloc("w4", allocBytes, core.Target2x); err != nil {
				t.Error(err)
				return
			}
			churns.Add(1)
			runtime.Gosched()
		}
	}()
	// The rounds start once both have run, and all three yield after each
	// step: at GOMAXPROCS 1 a round loop that never yields would finish
	// before either of them ran at all, and one that never got the
	// processor back would wait out whole time slices.
	for (moves.Load() == 0 || churns.Load() == 0) && !t.Failed() {
		runtime.Gosched()
	}
	moved, churned := moves.Load(), churns.Load()
	flip := map[core.TargetRatio]core.TargetRatio{core.Target2x: core.Target4x, core.Target4x: core.Target2x}
	applied := 0
	// At least 60 rounds, and on until both helpers have advanced inside
	// them: one the scheduler gave no time slice during the first 60 has
	// raced nothing yet. The cap only bounds a hang; reaching it fails below.
	const minRounds, maxRounds = 60, 100000
	for round := 0; round < maxRounds && (round < minRounds || moves.Load() == moved || churns.Load() == churned); round++ {
		plan := &core.ReprofilePlan{}
		for _, h := range p.Handles() {
			old := h.Target()
			plan.Decisions = append(plan.Decisions, core.ReprofileDecision{Alloc: h.Alloc(), Old: old, New: flip[old]})
		}
		st, err := p.ApplyReprofile(plan)
		if err != nil {
			t.Fatal(err)
		}
		applied += st.Applied
		runtime.Gosched()
	}
	moved, churned = moves.Load()-moved, churns.Load()-churned
	stop.Store(true)
	wg.Wait()
	if applied == 0 {
		t.Fatal("no reprofile decision was ever applied; the race was never run")
	}
	if moved == 0 || churned == 0 {
		t.Fatalf("%d moves and %d churns ran during the reprofile rounds; the race was never run", moved, churned)
	}
	balanced("after the race")

	final := &core.ReprofilePlan{}
	for _, h := range p.Handles() {
		if old := h.Target(); old != core.Target4x {
			final.Decisions = append(final.Decisions, core.ReprofileDecision{Alloc: h.Alloc(), Old: old, New: core.Target4x})
		}
	}
	if st, err := p.ApplyReprofile(final); err != nil || st.Applied != len(final.Decisions) {
		t.Fatalf("final reprofile: %+v, err %v; want all %d decisions applied", st, err, len(final.Decisions))
	}
	for _, h := range p.Handles() {
		if h.Target() != core.Target4x {
			t.Errorf("%s on shard %d is at %s after a reprofile that named it", h.Name(), h.Shard(), h.Target())
		}
		got := make([]byte, allocBytes)
		if _, err := h.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if h.Name() != "w4" && string(got) != string(data) {
			t.Errorf("%s lost its contents", h.Name())
		}
	}
	balanced("after the final reprofile")
}
