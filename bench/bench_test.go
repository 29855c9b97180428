package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func toyOptions(t *testing.T, seed uint64, trace bool) options {
	o := options{seed: seed, seconds: 0, trace: trace, sz: toySize, setups: 1, minRounds: 2}
	if trace {
		o.tracePath = filepath.Join(t.TempDir(), "trace.json")
	}
	return o
}

// exact lists, per workload, the end-to-end metrics that are counts made by
// the program: they must repeat bit for bit for one seed and one number of
// rounds.
var exact = map[string][]string{
	wStream:   {"compression_ratio", "buddy_access_frac", "ratio_hpc", "ratio_dl", "paper_err_pct"},
	wRPC:      {"compression_ratio", "buddy_access_frac", "ratio_hpc", "ratio_dl", "paper_err_pct"},
	wRelocate: {"compression_ratio", "buddy_access_frac", "ratio_hpc", "ratio_dl", "paper_err_pct"},
	wProfile:  {"compression_ratio", "buddy_access_frac", "modeled_gb_per_s", "ratio_hpc", "ratio_dl", "paper_err_pct"},
}

// TestWorkloads runs every workload at toy scale, traced, and checks the
// contract between the driver and BENCHMARK.json: the metric names emitted
// are the ones declared, every end-to-end value is a usable number, counts
// repeat for a seed, and the trace file is well formed.
func TestWorkloads(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := toyOptions(t, 1, true)
			rep, err := runWorkload(name, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted < 1 {
				t.Errorf("attempted %d operations", rep.attempted)
			}
			checkNames(t, nameRE, "end_to_end", endToEnd, rep.e2e)
			checkNames(t, nameRE, "per_layer", perLayer, rep.layer)
			for _, m := range endToEnd {
				if v := rep.e2e[m.Name]; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v: end-to-end metrics must be non-zero finite numbers", m.Name, v)
				}
			}
			if f := rep.layer["trace.overhead_frac"]; math.IsNaN(f) || f < -1 {
				t.Errorf("trace.overhead_frac = %v", f)
			}
			checkTraceFile(t, o.tracePath)

			// Two untraced runs do the same rounds, so their counts must agree
			// (the traced run above did extra, traced, rounds).
			first, err := runWorkload(name, toyOptions(t, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			again, err := runWorkload(name, toyOptions(t, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range exact[name] {
				if a, b := first.e2e[m], again.e2e[m]; a != b {
					t.Errorf("%s: %v then %v for one seed; counts must repeat exactly", m, a, b)
				}
			}
		})
	}
}

// TestSeedChangesInputs checks that the seed reaches the program's inputs:
// serve-rpc's data and op stream are drawn from it, so a count that depends
// on which entries are incompressible moves with it.
func TestSeedChangesInputs(t *testing.T) {
	a, err := runWorkload(wRPC, toyOptions(t, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(wRPC, toyOptions(t, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if a.e2e["buddy_access_frac"] == b.e2e["buddy_access_frac"] {
		t.Errorf("buddy_access_frac %v for seeds 1 and 2: the seed does not reach the inputs", a.e2e["buddy_access_frac"])
	}
}

func checkNames(t *testing.T, re *regexp.Regexp, kind string, declared []metric, got map[string]float64) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range declared {
		if !re.MatchString(m.Name) {
			t.Errorf("%s metric name %q is outside the contract's alphabet", kind, m.Name)
		}
		if seen[m.Name] {
			t.Errorf("%s metric %q declared twice", kind, m.Name)
		}
		seen[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			t.Errorf("%s metric %q declared but not emitted", kind, m.Name)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s metric %q emitted but not declared", kind, name)
		}
	}
}

// checkTraceFile loads the Chrome trace and checks the span tree: every
// span with a parent lies inside it.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	if len(doc.TraceEvents) < 3 {
		t.Fatalf("trace file holds %d events", len(doc.TraceEvents))
	}
	byID := map[float64]traceEvent{}
	for _, ev := range doc.TraceEvents {
		byID[ev.Args["id"].(float64)] = ev
	}
	const slack = 1e-3 // µs; ts and dur are rounded separately
	for _, ev := range doc.TraceEvents {
		pid, ok := ev.Args["parent"]
		if !ok {
			continue
		}
		p, ok := byID[pid.(float64)]
		if !ok {
			t.Fatalf("%s: parent %v is not in the file", ev.Name, pid)
		}
		if ev.Ts < p.Ts-slack || ev.Ts+ev.Dur > p.Ts+p.Dur+slack {
			t.Fatalf("%s [%v,+%v] is not inside its parent %s [%v,+%v]", ev.Name, ev.Ts, ev.Dur, p.Name, p.Ts, p.Dur)
		}
	}
}

// TestSelfTimesSumToParent records one traced stream round and checks the
// self-time rule on the raw buffers: within a client's track no two
// siblings overlap, and the self times of a subtree add up to its root.
func TestSelfTimesSumToParent(t *testing.T) {
	w, err := newWorkload(wStream, toySize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	tr := newTracer(clients)
	if _, err := w.round(1, tr, new(latencies)); err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.bufs[1:] {
		if len(b.spans) == 0 {
			t.Fatal("a client recorded no spans")
		}
		self := selfTimes(b.spans)
		var sum, roots int64
		lastEnd := map[int32]int64{}
		for i, s := range b.spans {
			if self[i] < 0 {
				t.Fatalf("%s has negative self time %d", spanNames[s.name], self[i])
			}
			sum += self[i]
			if s.parent < 0 {
				roots += s.end - s.start
				continue
			}
			p := b.spans[s.parent]
			if s.start < p.start || s.end > p.end {
				t.Fatalf("%s is not inside its parent %s", spanNames[s.name], spanNames[p.name])
			}
			if s.start < lastEnd[s.parent] {
				t.Fatalf("%s overlaps its previous sibling", spanNames[s.name])
			}
			lastEnd[s.parent] = s.end
		}
		if sum != roots {
			t.Errorf("self times sum to %d ns, the track's root spans to %d ns", sum, roots)
		}
	}
}

// TestSpecMatchesFile holds BENCHMARK.json and the driver's declarations
// together.
func TestSpecMatchesFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file, ours any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &ours); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, ours) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which is what the driver computes.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
