package main

import (
	"errors"
	"fmt"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/gen"
	"buddy/internal/pool"
	"buddy/internal/workloads"
)

// Workload names, in the order they run and print.
const (
	wStream   = "serve-stream"
	wRPC      = "serve-rpc"
	wRelocate = "relocate"
	wProfile  = "profile"
)

var workloadNames = []string{wStream, wRPC, wRelocate, wProfile}

// callers is how many goroutines a workload's round keeps in a closed loop.
func callers(workload string) int {
	if workload == wRPC {
		return maxCallers
	}
	return clients
}

// sizing fixes how much work a round does. Work per round never depends on
// the clock, so every count repeats exactly for a given seed.
type sizing struct {
	streamScale   int // serve-stream: fleet at 1/scale of Tab. 1
	relocateScale int
	rpcAllocs     int // per tenant
	rpcAllocBytes int
	rpcOps        int // per caller per round
	suiteScale    int
	suiteNames    []string // nil = all sixteen

	// The battery's own sizes: the data set it builds for profile (which
	// has none it could load into a pool), the suite it profiles on the
	// pool workloads, and the rpc op count of its probes.
	batteryFleetScale int
	batterySuiteScale int
	batteryRPCOps     int
}

var fullSize = sizing{
	streamScale: 512, relocateScale: 1024,
	rpcAllocs: 8, rpcAllocBytes: 8 << 20, rpcOps: 30000,
	suiteScale:        workloads.DefaultScale,
	batteryFleetScale: 2048, batterySuiteScale: 8192, batteryRPCOps: 12500,
}

// toySize is the unit test's scale: the same code paths in milliseconds.
var toySize = sizing{
	streamScale: 1 << 20, relocateScale: 1 << 20,
	rpcAllocs: 2, rpcAllocBytes: 64 << 10, rpcOps: 200,
	suiteScale: 1 << 20, suiteNames: []string{"352.ep", "ResNet50"},
	batteryFleetScale: 1 << 20, batterySuiteScale: 1 << 20, batteryRPCOps: 100,
}

// workload is one of the four benchmark workloads. setup is everything a
// user waits for before the first request (generate, build, load, one
// warm-up round); round is one fixed-work timed round.
type workload interface {
	setup() error
	// round runs one round and returns its sample: "ns" (the timed part),
	// "entries" (units of work), "ops", and per-op latencies in lat.
	// k numbers the round; the untraced and the traced round of one pair
	// share it, and with it their visiting order and op stream.
	round(k int, tr *tracer, lat *latencies) (sample, error)
	// finish runs after the last round: final verification, the accounting
	// audits and every end-to-end metric that is not a per-round time.
	finish(e2e map[string]float64) error
	// probes returns what the layer battery runs on: the data set loaded
	// in a pool, and the suite whose rounds give the workloads/analysis
	// numbers.
	probes() (*fleet, *suite, error)
	close() error
}

func newWorkload(name string, sz sizing, seed uint64) (workload, error) {
	switch name {
	case wStream, wRPC, wRelocate:
		return &poolWorkload{kind: name, sz: sz, seed: seed}, nil
	case wProfile:
		return &profileWorkload{sz: sz, seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// ---------------------------------------------------------------------------
// serve-stream, serve-rpc, relocate: three uses of one sharded pool
// ---------------------------------------------------------------------------

type poolWorkload struct {
	kind string
	sz   sizing
	seed uint64

	f *fleet

	heapBase   uint64     // Go heap before the pool exists (inputs already resident)
	heapLoaded uint64     // after load + warm-up
	heapMoved  uint64     // relocate: after heapRounds timed rounds
	rounds     int        // timed rounds so far
	warm       pool.Stats // pool telemetry after the warm-up round
	payload    float64    // bytes the timed rounds moved
}

func (w *poolWorkload) setup() error {
	rng := gen.NewRNG(w.seed, 1)
	var d *dataset
	var err error
	switch w.kind {
	case wStream:
		d, err = buildFleet(fleetBenchmarks, w.sz.streamScale, compress.NewBPC(), rng)
	case wRelocate:
		d, err = buildFleet(fleetBenchmarks, w.sz.relocateScale, compress.NewBPC(), rng)
	case wRPC:
		d = buildRPC(w.sz.rpcAllocs, w.sz.rpcAllocBytes, rng)
	}
	if err != nil {
		return err
	}
	if w.kind == wStream {
		for _, r := range d.regions {
			r.rb = make([]byte, len(r.data))
		}
	}
	w.heapBase = heapInuse()
	if w.f, err = newFleet(d, w.seed); err != nil {
		return err
	}
	if err := w.f.load(); err != nil {
		return err
	}
	if _, err := w.round(0, nil, new(latencies)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.heapLoaded = heapInuse()
	w.warm = w.f.p.Stats()
	w.payload, w.rounds = 0, 0
	return nil
}

// heapRounds is the timed round after which relocate reads the Go heap: a
// fixed count, because the heap grows with every relocation round (entries
// that move leave their old table slots behind) and the number of rounds a
// run fits in its time is the host's business, not the program's.
const heapRounds = 3

func (w *poolWorkload) round(k int, tr *tracer, lat *latencies) (sample, error) {
	var s sample
	switch w.kind {
	case wStream:
		s = w.f.streamRound(k, tr, lat)
		w.payload += s["entries"] * core.EntryBytes
	case wRPC:
		s = w.f.rpcRound(k, tr, lat, w.sz.rpcOps)
		w.payload += s["entries"] * core.EntryBytes
	case wRelocate:
		var err error
		if s, err = w.f.relocateRound(k, tr, lat, false); err != nil {
			return nil, err
		}
		if w.rounds++; w.rounds == heapRounds {
			w.heapMoved = heapInuse()
		}
	}
	return s, w.f.check()
}

func (w *poolWorkload) finish(e2e map[string]float64) error {
	f := w.f
	m := modeledBetween(w.warm, f.p.Stats(), w.payload)
	heap := w.heapLoaded
	if w.kind == wRelocate {
		// The rounds' traffic depends on how much the foreground reader got
		// done, which is wall-clock; the modeled axis instead comes from one
		// single-client verified sweep of everything after the last round,
		// from cold metadata caches, which also shows entries a relocation
		// left in the wrong tier. The heap is the one read after heapRounds
		// rounds, so that a relocation leak shows.
		heap = w.heapMoved
		f.p.ResetTraffic()
		before := f.p.Stats()
		_, entries, _ := f.sweep(nil, -1, f.d.regions, make([]byte, auditChunkBytes), nil, nil)
		if err := f.check(); err != nil {
			return err
		}
		m = modeledBetween(before, f.p.Stats(), float64(entries)*core.EntryBytes)
	}
	if err := f.audit(); err != nil {
		return err
	}
	e2e["compression_ratio"] = f.p.CompressionRatio()
	e2e["buddy_access_frac"] = m.buddyFrac
	e2e["modeled_gb_per_s"] = m.gbPerS
	e2e["host_bytes_per_entry"] = per(float64(heap)-float64(w.heapBase), float64(f.d.entries))
	e2e["ratio_hpc"] = f.groupRatio(groupHPC)
	e2e["ratio_dl"] = f.groupRatio(groupDL)
	e2e["paper_err_pct"] = 100 * (relErr(e2e["ratio_hpc"], paperFig7[0]) + relErr(e2e["ratio_dl"], paperFig7[1])) / 2
	return nil
}

// probes: the workload's own live pool, and a reduced suite.
func (w *poolWorkload) probes() (*fleet, *suite, error) {
	return w.f, newSuite(w.sz.batterySuiteScale, w.sz.suiteNames, w.seed), nil
}

func (w *poolWorkload) close() error {
	if w.f == nil {
		return nil
	}
	return w.f.close()
}

// ---------------------------------------------------------------------------
// profile: the sixteen-benchmark profiling pipeline, no pool, no device
// ---------------------------------------------------------------------------

type profileWorkload struct {
	sz   sizing
	seed uint64

	s        *suite
	heapBase uint64
	first    *suiteResult // every later round must reproduce it exactly
	battery  *fleet       // built on demand for the layer battery
}

func (w *profileWorkload) setup() error {
	w.heapBase = heapInuse()
	w.s = newSuite(w.sz.suiteScale, w.sz.suiteNames, w.seed)
	_, err := w.round(0, nil, new(latencies))
	return err
}

func (w *profileWorkload) round(_ int, tr *tracer, lat *latencies) (sample, error) {
	lat.reset()
	s, res, err := w.s.round(tr, lat)
	if err != nil {
		return nil, err
	}
	if w.first == nil {
		w.first = &res
	} else if res != *w.first {
		return nil, fmt.Errorf("profile round disagrees with the first: %+v vs %+v", res, *w.first)
	}
	return s, nil
}

func (w *profileWorkload) finish(e2e map[string]float64) error {
	r := w.first
	e2e["compression_ratio"] = r.ratioAll
	e2e["buddy_access_frac"] = r.buddyFrac
	e2e["modeled_gb_per_s"] = r.modeledGBs
	e2e["host_bytes_per_entry"] = per(float64(heapInuse())-float64(w.heapBase), float64(w.s.indexEntries()))
	e2e["ratio_hpc"] = r.finalHPC
	e2e["ratio_dl"] = r.finalDL
	e2e["paper_err_pct"] = r.paperErrPct()
	return nil
}

// probes: profile's own suite, and — since it has no pool — one snapshot
// of each of its benchmarks loaded into one like the fleet workloads'.
func (w *profileWorkload) probes() (*fleet, *suite, error) {
	if w.battery == nil {
		var names []string
		for _, b := range w.s.order {
			names = append(names, b.Name)
		}
		d, err := buildFleet(names, w.sz.batteryFleetScale, compress.NewBPC(), gen.NewRNG(w.seed, 1))
		if err != nil {
			return nil, nil, err
		}
		f, err := newFleet(d, w.seed)
		if err != nil {
			return nil, nil, err
		}
		w.battery = f
		if err := f.load(); err != nil {
			return nil, nil, err
		}
	}
	return w.battery, w.s, nil
}

func (w *profileWorkload) close() error {
	if w.battery == nil {
		return nil
	}
	return w.battery.close()
}

// load writes every region once through the synchronous handle path, both
// clients in parallel.
func (f *fleet) load() error {
	var errs [clients]error
	parallel(func(c int) {
		for _, r := range f.d.byClient[c] {
			if _, err := r.h.WriteAt(r.data, 0); err != nil && errs[c] == nil {
				errs[c] = fmt.Errorf("load %s: %w", r.name, err)
			}
		}
	})
	return errors.Join(errs[:]...)
}
