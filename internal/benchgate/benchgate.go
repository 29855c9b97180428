// Package benchgate pins codec and data-path benchmark results so a perf
// regression fails CI instead of landing silently. The gate works on two
// metrics: the ns/entry throughput metric the compress/core/pool benchmarks
// report, and the allocs/op counts from -benchmem — pinned at 0 for the
// allocation-free fast paths, so a de-pooled future fails the gate
// the same way a lost codec kernel does. `make bench-baseline` records the
// current machine's numbers into BENCH_baseline.json, and `make bench-gate`
// re-runs the same benchmarks and fails when any pinned benchmark runs
// slower (or allocates more) than baseline x tolerance.
//
// Baselines are machine-relative: the ceilings pin a ratio, not an absolute
// truth, so a new machine (or a deliberate trade-off) re-pins with
// bench-baseline in the same commit that explains why.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// DefaultTolerance is the slowdown ratio the gate allows before failing:
// enough headroom for scheduler and turbo jitter on a quiet machine, far
// below the 2x+ cliffs that losing a fast path causes. Allocation pins of 0
// get no headroom from any tolerance: 0 x anything is 0.
const DefaultTolerance = 1.3

// Baseline is the pinned benchmark state stored in BENCH_baseline.json.
type Baseline struct {
	// Note documents how the baseline was produced (command, machine hint).
	Note string `json:"note,omitempty"`
	// Tolerance is the allowed got/pinned ratio before the gate fails.
	Tolerance float64 `json:"tolerance"`
	// NsPerEntry maps benchmark name (without the "Benchmark" prefix and
	// -GOMAXPROCS suffix) to its pinned ns/entry.
	NsPerEntry map[string]float64 `json:"ns_per_entry"`
	// AllocsPerOp pins benchmarks' allocs/op the same way. A pin of 0 means
	// the benchmark must stay allocation-free.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// Results holds the metrics extracted from one bench run, keyed by benchmark
// name.
type Results struct {
	NsPerEntry  map[string]float64
	AllocsPerOp map[string]float64
}

// ParseBench extracts ns/entry and allocs/op metrics from `go test -bench`
// output. Lines without either metric are ignored. Repeated runs of one
// benchmark (-count N) collapse to the minimum — the standard de-noising for
// a gate that asks "can this code still run this fast", not "what is
// typical".
func ParseBench(r io.Reader) (Results, error) {
	out := Results{
		NsPerEntry:  make(map[string]float64),
		AllocsPerOp: make(map[string]float64),
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, m, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if ns, has := m.ns(); has {
			if prev, seen := out.NsPerEntry[name]; !seen || ns < prev {
				out.NsPerEntry[name] = ns
			}
		}
		if al, has := m.allocs(); has {
			if prev, seen := out.AllocsPerOp[name]; !seen || al < prev {
				out.AllocsPerOp[name] = al
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Results{}, err
	}
	return out, nil
}

// lineMetrics is one bench line's parsed metric fields; negative means the
// field was absent.
type lineMetrics struct {
	nsPerEntry  float64
	allocsPerOp float64
}

func (m lineMetrics) ns() (float64, bool)     { return m.nsPerEntry, m.nsPerEntry >= 0 }
func (m lineMetrics) allocs() (float64, bool) { return m.allocsPerOp, m.allocsPerOp >= 0 }

// parseLine pulls the metrics out of one benchmark result line, e.g.
//
//	BenchmarkWriteEntry/sparse90-8  3822  312.5 ns/op  409 MB/s  0 B/op  0 allocs/op  312.1 ns/entry
func parseLine(line string) (string, lineMetrics, bool) {
	m := lineMetrics{nsPerEntry: -1, allocsPerOp: -1}
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", m, false
	}
	for i := 2; i < len(f); i++ {
		var dst *float64
		switch f[i] {
		case "ns/entry":
			dst = &m.nsPerEntry
		case "allocs/op":
			dst = &m.allocsPerOp
		default:
			continue
		}
		v, err := strconv.ParseFloat(f[i-1], 64)
		if err != nil {
			return "", m, false
		}
		*dst = v
	}
	if m.nsPerEntry < 0 && m.allocsPerOp < 0 {
		return "", m, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if cut := strings.LastIndex(name, "-"); cut >= 0 {
		// The trailing -N is the GOMAXPROCS suffix, not part of the name.
		if _, err := strconv.Atoi(name[cut+1:]); err == nil {
			name = name[:cut]
		}
	}
	return name, m, true
}

// Violation is one benchmark metric that failed the gate.
type Violation struct {
	Name      string
	Metric    string  // "ns/entry" or "allocs/op"
	Pinned    float64 // baseline value
	Got       float64 // measured value (0 when the benchmark went missing)
	Missing   bool    // the benchmark disappeared from the run
	Tolerance float64 // the ratio limit the comparison used
}

func (v Violation) String() string {
	if v.Missing {
		return fmt.Sprintf("%s: pinned at %.1f %s but missing from this run", v.Name, v.Pinned, v.Metric)
	}
	return fmt.Sprintf("%s: %.1f %s exceeds pinned %.1f x tolerance %.2f (limit %.1f)",
		v.Name, v.Got, v.Metric, v.Pinned, v.Tolerance, v.Pinned*v.Tolerance)
}

// Compare checks measured results against the baseline. Every pinned metric
// must be present and within tolerance; benchmarks that only exist in got
// (new benchmarks, not yet pinned) pass — they join the baseline at the next
// bench-baseline. A 0 allocs/op pin admits no tolerance: any allocation
// fails. Violations come back sorted by name then metric.
func Compare(base Baseline, got Results) []Violation {
	tol := base.Tolerance
	if tol <= 0 {
		tol = DefaultTolerance
	}
	var out []Violation
	compareMetric := func(metric string, pins, meas map[string]float64) {
		for name, pinned := range pins {
			v, ok := meas[name]
			if !ok {
				out = append(out, Violation{Name: name, Metric: metric, Pinned: pinned, Missing: true, Tolerance: tol})
				continue
			}
			if v > pinned*tol {
				out = append(out, Violation{Name: name, Metric: metric, Pinned: pinned, Got: v, Tolerance: tol})
			}
		}
	}
	compareMetric("ns/entry", base.NsPerEntry, got.NsPerEntry)
	compareMetric("allocs/op", base.AllocsPerOp, got.AllocsPerOp)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// Pins returns the total number of pinned metrics in the baseline.
func (b Baseline) Pins() int { return len(b.NsPerEntry) + len(b.AllocsPerOp) }

// ReadBaseline loads a baseline file.
func ReadBaseline(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if b.Pins() == 0 {
		return b, fmt.Errorf("benchgate: %s pins no benchmarks", path)
	}
	return b, nil
}

// WriteBaseline stores the baseline with stable key order for reviewable
// diffs.
func WriteBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
