// Command bench is the repository's benchmark: four workloads, ten
// end-to-end metrics and a per-layer budget measured from outside the
// program. See README.md in this directory; BENCHMARK.json at the
// repository root declares what it reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all four, traced")
		seed     = flag.Uint64("seed", 1, "workload seed: client/region assignment, visiting order, dynamic-region snapshot, rpc op stream and data")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed rounds run")
		trace    = flag.Int("trace", 0, "1 = also run the traced pass and the layer battery, and report the per-layer metrics instead")
		outDir   = flag.String("out", ".bench_build", "directory for trace files")
		agree    = flag.Bool("check-agreement", false, "run two sets of three runs per workload and fail if any end-to-end metric's medians disagree by more than its bound")
		specOnly = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *specOnly {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkSpec()); err != nil {
			die(err)
		}
		return
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSize, setups: 3, minRounds: 3}
	switch {
	case *agree:
		if err := checkAgreement(o, *workload); err != nil {
			die(err)
		}
	case *workload == "":
		o.trace = true
		for _, name := range workloadNames {
			rep, err := runTraced(name, o, *outDir)
			if err != nil {
				die(err)
			}
			rep.print(true, true)
		}
	default:
		rep, err := runTraced(*workload, o, *outDir)
		if err != nil {
			die(err)
		}
		rep.print(!o.trace, o.trace)
		rep.printResult(o.trace)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runTraced runs one workload and, when tracing, puts its trace file under
// dir.
func runTraced(name string, o options, dir string) (*report, error) {
	if o.trace {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		o.tracePath = filepath.Join(dir, "trace-"+name+".json")
	}
	return runWorkload(name, o)
}

// header is what every output and trace file records about the run.
func header(name string, o options) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     buildCommit,
		"clients":    callers(name),
		"calib_ns":   calibrate(),
	}
}

// buildCommit is the commit run.sh built from (-ldflags -X); a build
// outside a git checkout has none.
var buildCommit = "unknown"

// print writes the human-readable report: the header, then every metric by
// name with its unit and axis.
func (r *report) print(e2e, layers bool) {
	keys := make([]string, 0, len(r.header))
	for k := range r.header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s:", r.workload)
	for _, k := range keys {
		if k != "workload" {
			fmt.Printf(" %s=%v", k, r.header[k])
		}
	}
	fmt.Printf(" rounds=%d ops_attempted=%d ops_failed=0\n", r.rounds, r.attempted)
	if e2e {
		for _, m := range endToEnd {
			fmt.Printf("%-14s %-34s %14.6g %-6s %-7s", r.workload, m.Name, r.e2e[m.Name], m.Unit, m.axis)
			if w, ok := r.walls[m.Name]; ok {
				fmt.Printf(" q1=%.6g median=%.6g q3=%.6g n=%d", w.q1, w.q2, w.q3, w.n)
			}
			fmt.Println()
		}
	}
	if layers && r.layer != nil {
		for _, m := range perLayer {
			fmt.Printf("%-14s %-34s %14.6g %-6s %s\n", r.workload, m.Name, r.layer[m.Name], m.Unit, m.axis)
		}
		round := float64(r.spans[spRound].total)
		n := callers(r.workload)
		fmt.Printf("# %s traced spans (share of round wall x %d clients; self = span minus its children):\n", r.workload, n)
		for i, a := range r.spans {
			if a.count > 0 && i != spReplay {
				fmt.Printf("#   %-28s n=%-9d total=%8.3f ms  self=%8.3f ms  self_share=%.3f\n",
					spanNames[i], a.count, float64(a.total)/1e6, float64(a.self)/1e6, per(float64(a.self), float64(n)*round))
			}
		}
	}
}

// printResult writes the driver's result line: one JSON object, last on
// standard output.
func (r *report) printResult(layers bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Metrics: map[string]value{}}
	ms, vals := endToEnd, r.e2e
	if layers {
		ms, vals = perLayer, r.layer
	}
	for _, m := range ms {
		out.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		die(err)
	}
	fmt.Println(string(b))
}

// checkAgreement runs two sets of three runs of every workload (or one)
// with the same binary and seed and compares, per end-to-end metric, the
// two sets' medians against the metric's bound — the test the driver
// applies before it trusts the benchmark to tell two commits apart.
func checkAgreement(o options, only string) error {
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	bad := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < 3; i++ {
				rep, err := runWorkload(name, o)
				if err != nil {
					return err
				}
				for _, m := range endToEnd {
					sets[s][m.Name] = append(sets[s][m.Name], rep.e2e[m.Name])
				}
			}
		}
		fmt.Printf("# %s: seed=%d seconds=%g, two sets of 3 runs\n", name, o.seed, o.seconds)
		fmt.Printf("%-14s %-22s %12s %12s %9s %9s %7s %6s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "diff", "bound")
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			diff := per(mb-ma, ma)
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > m.Bound || -diff > m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-22s %12.6g %12.6g %8.2f%% %8.2f%% %6.2f%% %5.0f%%%s\n",
				name, m.Name, ma, mb, 100*spread(a), 100*spread(b), 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric/workload pairs disagree between two sets of runs of the same code", bad)
	}
	return nil
}

// spread is max-min over median: with three runs per set the quartiles are
// the extremes.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return per(q3-q1, q2)
}
