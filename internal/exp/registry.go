package exp

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Experiment is one regenerable table or figure of the paper's evaluation.
type Experiment struct {
	// Name identifies the experiment (e.g. "fig7"); Run matches it
	// case-insensitively.
	Name string
	// Description says what the experiment regenerates.
	Description string
	// Run writes the experiment's paper-style rows/series to w.
	Run func(w io.Writer, sc Scale) error
}

// experiments is the paper's evaluation in paper order, what the tests and
// cmd/buddysim list and run (e.g. `buddysim -exp fig9 -quick`).
var experiments = []Experiment{
	{Name: "tab1", Description: "benchmark table: suites, footprints, regions", Run: func(w io.Writer, _ Scale) error { return runTab1(w) }},
	{Name: "tab2", Description: "performance-simulator configuration", Run: func(w io.Writer, _ Scale) error {
		_, err := fmt.Fprint(w, Tab2())
		return err
	}},
	{Name: "fig3", Description: "per-snapshot BPC compression ratios per benchmark", Run: runFig3},
	{Name: "sparse", Description: "per-codec compression ratio on sparse fp16 activations (cDMA's 50-90% zero class)", Run: runSparse},
	{Name: "fig5b", Description: "metadata cache hit rate vs cache size", Run: func(w io.Writer, _ Scale) error { return runFig5b(w) }},
	{Name: "fig6", Description: "spatial compressibility heat-maps", Run: runFig6},
	{Name: "fig7", Description: "compression and buddy traffic: naive vs per-allocation vs final", Run: runFig7},
	{Name: "fig8", Description: "buddy-access fraction over time under fixed targets", Run: runFig8},
	{Name: "fig9", Description: "Buddy Threshold sweep per benchmark", Run: runFig9},
	{Name: "fig10", Description: "simulator correlation against reference cycles", Run: runFig10},
	{Name: "fig11", Description: "performance vs interconnect bandwidth sweep", Run: runFig11},
	{Name: "fig12", Description: "Unified Memory oversubscription baseline", Run: func(w io.Writer, _ Scale) error { return runFig12(w) }},
	{Name: "fig13a", Description: "DL training footprint vs batch size", Run: func(w io.Writer, _ Scale) error { return runFig13a(w) }},
	{Name: "fig13b", Description: "DL training speedup vs batch size", Run: func(w io.Writer, _ Scale) error { return runFig13b(w) }},
	{Name: "fig13c", Description: "feasible batch and speedup with Buddy Compression", Run: func(w io.Writer, _ Scale) error { return runFig13c(w) }},
	{Name: "fig13d", Description: "training accuracy across batch sizes", Run: func(w io.Writer, _ Scale) error { return runFig13d(w) }},
	{Name: "reprofile", Description: "live target-ratio migration on a drifting workload (§3.4 extension)", Run: runReprofile},
	{Name: "serve", Description: "sharded multi-device serving: aggregate throughput, 1 vs N shards", Run: runServe},
	{Name: "heal", Description: "self-healing fleet: serve through a dead shard, rebuild it from buddy memory once the round retries, check the bytes; round B's modeled GB/s counts the rebuild's traffic, its wall time the wait", Run: runHeal},
	{Name: "qos", Description: "tenant-aware serving: latency SLO under batch saturation, weighted batch shares, admission control", Run: runQoS},
}

// Experiments returns the paper's experiments in paper order; the slice is
// a copy.
func Experiments() []Experiment { return slices.Clone(experiments) }

// Run regenerates one table or figure by (case-insensitive) name, or every
// one in order for "all", at scale sc (Reference or Quick, say), and writes
// the paper-style rows/series to w.
func Run(w io.Writer, name string, sc Scale) error {
	if strings.EqualFold(name, "all") {
		for _, e := range experiments {
			fmt.Fprintf(w, "==== %s ====\n", e.Name)
			if err := e.Run(w, sc); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	names := make([]string, len(experiments))
	for i, e := range experiments {
		if strings.EqualFold(e.Name, name) {
			return e.Run(w, sc)
		}
		names[i] = e.Name
	}
	return fmt.Errorf("exp: unknown experiment %q (have %s)", name, strings.Join(names, ", "))
}
