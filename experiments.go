package buddy

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"buddy/internal/exp"
	"buddy/internal/gpusim"
)

// ExperimentScale controls workload synthesis size for the experiment
// runners (footprint divisor; statistics are per-entry and scale-free).
type ExperimentScale struct {
	// Workload is the footprint divisor for data synthesis (default 1024).
	Workload int
	// Sim scales the performance simulator's trace length (1.0 = the full
	// Tab. 2 run length).
	Sim float64
	// Shards is the pool width for the sharded-serving experiment
	// (0 = the default 4); the cmds' -shards flag lands here.
	Shards int
	// Tenants is the batch tenant population for the qos experiment
	// (0 = the default exp.QoSBatchTenants); the cmds' -tenants flag
	// lands here.
	Tenants int
	// QoSSLOCycles is the qos experiment's latency-tenant p99 bound in
	// modeled cycles (0 = the default exp.QoSDefaultSLOCycles); the cmds'
	// -qos flag lands here.
	QoSSLOCycles float64
}

// DefaultScale runs at the repository's reference fidelity.
func DefaultScale() ExperimentScale { return ExperimentScale{Workload: 1024, Sim: 1.0} }

// QuickScale runs every experiment in seconds, for CI-style smoke runs.
func QuickScale() ExperimentScale { return ExperimentScale{Workload: 16384, Sim: 0.2} }

// The paper's tables and figures self-register so cmd/buddysim,
// cmd/buddyprof and the tests discover them through the registry instead of
// a hard-coded switch. Registration order follows the paper.
func init() {
	for _, e := range []Experiment{
		{Name: "tab1", Description: "benchmark table: suites, footprints, regions", Run: func(w io.Writer, _ ExperimentScale) error { return runTab1(w) }},
		{Name: "tab2", Description: "performance-simulator configuration", Run: func(w io.Writer, sc ExperimentScale) error {
			_, err := fmt.Fprint(w, exp.Tab2(exp.ScaledSimConfig(sc.Sim)))
			return err
		}},
		{Name: "fig3", Description: "per-snapshot BPC compression ratios per benchmark", Run: runFig3},
		{Name: "sparse", Description: "per-codec compression ratio on sparse fp16 activations (cDMA's 50-90% zero class)", Run: runSparse},
		{Name: "fig5b", Description: "metadata cache hit rate vs cache size", Run: func(w io.Writer, _ ExperimentScale) error { return runFig5b(w) }},
		{Name: "fig6", Description: "spatial compressibility heat-maps", Run: runFig6},
		{Name: "fig7", Description: "compression and buddy traffic: naive vs per-allocation vs final", Run: runFig7},
		{Name: "fig8", Description: "buddy-access fraction over time under fixed targets", Run: runFig8},
		{Name: "fig9", Description: "Buddy Threshold sweep per benchmark", Run: runFig9},
		{Name: "fig10", Description: "simulator correlation against reference cycles", Run: runFig10},
		{Name: "fig11", Description: "performance vs interconnect bandwidth sweep", Run: runFig11},
		{Name: "fig12", Description: "Unified Memory oversubscription baseline", Run: func(w io.Writer, _ ExperimentScale) error { return runFig12(w) }},
		{Name: "fig13a", Description: "DL training footprint vs batch size", Run: func(w io.Writer, _ ExperimentScale) error { return runFig13a(w) }},
		{Name: "fig13b", Description: "DL training speedup vs batch size", Run: func(w io.Writer, _ ExperimentScale) error { return runFig13b(w) }},
		{Name: "fig13c", Description: "feasible batch and speedup with Buddy Compression", Run: func(w io.Writer, _ ExperimentScale) error { return runFig13c(w) }},
		{Name: "fig13d", Description: "training accuracy across batch sizes", Run: func(w io.Writer, _ ExperimentScale) error { return runFig13d(w) }},
		{Name: "reprofile", Description: "live target-ratio migration on a drifting workload (§3.4 extension)", Run: runReprofile},
		{Name: "serve", Description: "sharded multi-device serving: aggregate throughput, 1 vs N shards", Run: runServe},
		{Name: "heal", Description: "self-healing fleet: kill a shard mid-serve, rebuild from buddy memory, measure the dip", Run: runHeal},
		{Name: "qos", Description: "tenant-aware serving: latency SLO under batch saturation, weighted batch shares, admission control", Run: runQoS},
	} {
		RegisterExperiment(e)
	}
}

func runTab1(w io.Writer) error {
	rows := [][]string{}
	for _, r := range exp.Table1() {
		rows = append(rows, []string{r.Name, r.Suite.String(),
			fmt.Sprintf("%.2f GB", float64(r.Footprint)/(1<<30)),
			fmt.Sprintf("%d", r.Regions)})
	}
	_, err := fmt.Fprint(w, exp.FormatTable([]string{"Benchmark", "Suite", "Footprint", "Regions"}, rows))
	return err
}

func runFig3(w io.Writer, sc ExperimentScale) error {
	res := exp.Fig3(sc.Workload)
	rows := [][]string{}
	for _, r := range res.Rows {
		series := make([]string, len(r.Ratios))
		for i, v := range r.Ratios {
			series[i] = fmt.Sprintf("%.2f", v)
		}
		rows = append(rows, []string{r.Name, r.Suite.String(),
			fmt.Sprintf("%.2f", r.Mean), strings.Join(series, " ")})
	}
	fmt.Fprint(w, exp.FormatTable([]string{"Benchmark", "Suite", "Mean", "Snapshots 0..9"}, rows))
	_, err := fmt.Fprintf(w, "GMEAN_HPC %.2f (paper 2.51)   GMEAN_DL %.2f (paper 1.85)\n",
		res.GMeanHPC, res.GMeanDL)
	return err
}

func runSparse(w io.Writer, sc ExperimentScale) error {
	res := exp.SparseSweep(sc.Workload, nil)
	header := []string{"Codec"}
	for _, zf := range res.ZeroFracs {
		header = append(header, fmt.Sprintf("%d%% zero", int(zf*100)))
	}
	rows := [][]string{}
	for _, r := range res.Rows {
		cells := []string{r.Codec}
		for _, ratio := range r.Ratios {
			cells = append(cells, fmt.Sprintf("%.2f", ratio))
		}
		rows = append(rows, cells)
	}
	_, err := fmt.Fprint(w, exp.FormatTable(header, rows))
	return err
}

func runFig5b(w io.Writer) error {
	rows := exp.Fig5b(nil)
	table := [][]string{}
	for _, r := range rows {
		cells := []string{r.Name}
		for _, hr := range r.HitRates {
			cells = append(cells, fmt.Sprintf("%.3f", hr))
		}
		table = append(table, cells)
	}
	header := []string{"Benchmark"}
	for _, kb := range rows[0].SizesKB {
		header = append(header, fmt.Sprintf("%dKB", kb))
	}
	_, err := fmt.Fprint(w, exp.FormatTable(header, table))
	return err
}

func runFig6(w io.Writer, sc ExperimentScale) error {
	for _, m := range exp.Fig6(sc.Workload) {
		if _, err := fmt.Fprintln(w, m.ASCII(24)); err != nil {
			return err
		}
	}
	return nil
}

func runFig7(w io.Writer, sc ExperimentScale) error {
	res := exp.Fig7(sc.Workload)
	rows := [][]string{}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Name, r.Suite.String(),
			fmt.Sprintf("%.2fx/%4.1f%%", r.Naive.Ratio, r.Naive.BuddyFrac*100),
			fmt.Sprintf("%.2fx/%4.1f%%", r.PerAlloc.Ratio, r.PerAlloc.BuddyFrac*100),
			fmt.Sprintf("%.2fx/%4.1f%%", r.Final.Ratio, r.Final.BuddyFrac*100)})
	}
	fmt.Fprint(w, exp.FormatTable(
		[]string{"Benchmark", "Suite", "Naive", "Per-Allocation", "Final (zero-page)"}, rows))
	_, err := fmt.Fprintf(w,
		"GMEAN  naive HPC %.2fx/%.1f%% DL %.2fx/%.1f%% | final HPC %.2fx/%.2f%% DL %.2fx/%.1f%% (paper: 1.57/8 1.18/32 | 1.9/0.08 1.5/4)\n",
		res.NaiveHPC.Ratio, res.NaiveHPC.BuddyFrac*100, res.NaiveDL.Ratio, res.NaiveDL.BuddyFrac*100,
		res.FinalHPC.Ratio, res.FinalHPC.BuddyFrac*100, res.FinalDL.Ratio, res.FinalDL.BuddyFrac*100)
	return err
}

func runFig8(w io.Writer, sc ExperimentScale) error {
	for _, r := range exp.Fig8(sc.Workload) {
		fmt.Fprintf(w, "%s (ratio %.2fx):", r.Name, r.Points[0].Ratio)
		for _, p := range r.Points {
			fmt.Fprintf(w, " %.3f", p.BuddyFrac)
		}
		fmt.Fprintln(w, "   (buddy-access fraction per snapshot)")
	}
	return nil
}

func runFig9(w io.Writer, sc ExperimentScale) error {
	rows := exp.Fig9(sc.Workload, nil)
	table := [][]string{}
	for _, r := range rows {
		cells := []string{r.Name}
		for _, p := range r.Points {
			cells = append(cells, fmt.Sprintf("%.2fx/%4.1f%%", p.Ratio, p.BuddyFrac*100))
		}
		cells = append(cells, fmt.Sprintf("%.2fx", r.Best))
		table = append(table, cells)
	}
	header := []string{"Benchmark"}
	for _, th := range rows[0].Thresholds {
		header = append(header, fmt.Sprintf("BT=%.0f%%", th*100))
	}
	header = append(header, "Best")
	_, err := fmt.Fprint(w, exp.FormatTable(header, table))
	return err
}

func runFig10(w io.Writer, sc ExperimentScale) error {
	res := exp.Fig10(sc.Workload, exp.ScaledSimConfig(sc.Sim))
	fmt.Fprintf(w, "correlation(log cycles, sim vs reference) = %.3f (paper 0.989 vs silicon)\n",
		res.CorrelationLog)
	fmt.Fprintf(w, "fast mode %.3fs vs detailed mode %.3fs: %.1fx faster (cycle agreement %.2f)\n",
		res.FastWallSeconds, res.DetailedWallSeconds, res.SpeedupVsDetailed, res.DetailedAgreement)
	points := res.Points
	sort.Slice(points, func(i, j int) bool { return points[i].SimCycles < points[j].SimCycles })
	for _, p := range points[:min(6, len(points))] {
		fmt.Fprintf(w, "  %-14s ops=%-5d sim=%.3e ref=%.3e\n", p.Name, p.OpsPerWarp, p.SimCycles, p.RefCycles)
	}
	return nil
}

func runFig11(w io.Writer, sc ExperimentScale) error {
	res := exp.Fig11(sc.Workload, exp.ScaledSimConfig(sc.Sim), nil)
	table := [][]string{}
	for _, r := range res.Rows {
		cells := []string{r.Name, r.Suite.String(), fmt.Sprintf("%.3f", r.BWOnly)}
		for _, b := range r.Buddy {
			cells = append(cells, fmt.Sprintf("%.3f", b))
		}
		cells = append(cells, fmt.Sprintf("%.1f%%", r.BuddyAccessShare*100))
		table = append(table, cells)
	}
	header := []string{"Benchmark", "Suite", "BW-only"}
	for _, l := range res.Links {
		header = append(header, fmt.Sprintf("Buddy@%.0f", l))
	}
	header = append(header, "BuddyShare")
	fmt.Fprint(w, exp.FormatTable(header, table))
	_, err := fmt.Fprintf(w, "GMEAN bw-only %.3f (paper 1.055) | buddy@150 HPC %.3f DL %.3f (paper 0.99 / 0.978)\n",
		res.GMeanBWOnly, res.GMeanHPC150, res.GMeanDL150)
	return err
}

func runFig12(w io.Writer) error {
	for _, r := range exp.Fig12() {
		fmt.Fprintf(w, "%-10s pinned=%.1fx  um:", r.Name, r.Pinned)
		for _, p := range r.Points {
			fmt.Fprintf(w, " %.0f%%=%.1fx", p.Oversubscription*100, p.RelativeRuntime)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig13a(w io.Writer) error {
	for _, r := range exp.Fig13a() {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, p := range r.Points {
			fmt.Fprintf(w, " b%d=%.1fGB", p.Batch, float64(p.Footprint)/(1<<30))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig13b(w io.Writer) error {
	for _, r := range exp.Fig13b() {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, p := range r.Points {
			fmt.Fprintf(w, " b%d=%.2fx", p.Batch, p.Speedup)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig13c(w io.Writer) error {
	res := exp.Fig13c()
	rows := [][]string{}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Name, fmt.Sprintf("%d", r.BaseBatch),
			fmt.Sprintf("%d", r.CompressedBatch), fmt.Sprintf("%.2fx", r.Speedup)})
	}
	fmt.Fprint(w, exp.FormatTable([]string{"Network", "Batch@12GB", "Batch w/ Buddy", "Speedup"}, rows))
	_, err := fmt.Fprintf(w, "mean speedup %.2fx (paper ~1.14x; VGG16/BigLSTM highest)\n", res.Mean)
	return err
}

func runFig13d(w io.Writer) error {
	for _, r := range exp.Fig13d(exp.DefaultFig13dConfig()) {
		fmt.Fprintf(w, "batch %3d: final accuracy %.3f (jitter %.4f)\n", r.Batch, r.Final, r.Jitter)
	}
	return nil
}

func runReprofile(w io.Writer, sc ExperimentScale) error {
	res, err := exp.Reprofile(sc.Workload)
	if err != nil {
		return err
	}
	rows := [][]string{}
	var migrated int64
	var applied int
	for _, s := range res.Steps {
		action := "-"
		if s.Applied {
			action = fmt.Sprintf("migrate %d KiB", s.MigratedBytes>>10)
			migrated += s.MigratedBytes
			applied++
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Snapshot),
			fmt.Sprintf("%5.1f%%", s.StaleBuddyFrac*100),
			action,
			fmt.Sprintf("%5.1f%%", s.BuddyFracAfter*100),
			fmt.Sprintf("%.2fx", s.Ratio),
		})
	}
	fmt.Fprint(w, exp.FormatTable(
		[]string{"Snapshot", "Buddy(stale)", "Checkpoint action", "Buddy(after)", "Ratio"}, rows))
	_, err = fmt.Fprintf(w, "%s: %d checkpoints reprofiled, %d KiB migrated (horizon %d accesses)\n",
		res.Benchmark, applied, migrated>>10, res.Horizon)
	return err
}

func runServe(w io.Writer, sc ExperimentScale) error {
	res, err := exp.Serve(sc.Workload, sc.Shards)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%.2f", p.ThroughputGBs),
			fmt.Sprintf("%.3e", p.ServiceCycles),
			fmt.Sprintf("%.3f", p.MetadataHitRate),
			fmt.Sprintf("%.2fs", p.WallSeconds),
		})
	}
	fmt.Fprint(w, exp.FormatTable(
		[]string{"Shards", "Modeled GB/s", "Service cycles", "Meta hit", "Wall"}, rows))
	fmt.Fprintf(w,
		"%d clients (%d DL + %d HPC working sets), %.1f MiB served per configuration\n"+
			"aggregate serving throughput %d shards vs 1: %.2fx (equal total capacity)\n",
		res.Clients, len(res.Benchmarks)/2, len(res.Benchmarks)/2,
		float64(res.PayloadBytes)/(1<<20),
		res.Points[len(res.Points)-1].Shards, res.Speedup)
	if c := res.Chunked; c != nil {
		_, err = fmt.Fprintf(w,
			"chunked clients (%d B submits, %d shards): %.2f GB/s wall, %.0f%% of %d tasks coalesced, %d served in place\n",
			c.ChunkBytes, c.Shards, c.WallGBs, 100*c.CoalescedFrac, c.Submitted, c.Inline)
	}
	return err
}

func runHeal(w io.Writer, sc ExperimentScale) error {
	res, err := exp.Heal(sc.Workload, sc.Shards)
	if err != nil {
		return err
	}
	rows := [][]string{
		{"A: baseline", fmt.Sprintf("%.2f", res.BaselineGBs), "-"},
		{fmt.Sprintf("B: shard %d killed", res.KilledShard), fmt.Sprintf("%.2f", res.FailureGBs),
			fmt.Sprintf("%d retried ops", res.Retried)},
		{"C: recovered", fmt.Sprintf("%.2f", res.RecoveredGBs),
			fmt.Sprintf("%.0f%% of baseline", res.RecoveryRatio*100)},
	}
	fmt.Fprint(w, exp.FormatTable([]string{"Round", "Modeled GB/s", "Notes"}, rows))
	fmt.Fprintf(w,
		"%d clients on %d shards; rebuild: %d entries, %d KiB over the buddy link in %s; lost bytes: %d\n",
		res.Clients, res.Shards, res.RebuiltEntries, res.RebuiltBytes>>10, res.RecoveryWall, res.LostBytes)
	_, err = fmt.Fprintf(w,
		"quiesced migration: %d decodes, %d encodes (codec-matched => 0/0); migration bytes src=%d dst=%d\n",
		res.MigrateDecodes, res.MigrateEncodes, res.MigrationBytesSrc, res.MigrationBytesDst)
	return err
}

func runQoS(w io.Writer, sc ExperimentScale) error {
	res, err := exp.QoS(sc.Workload, sc.Shards, sc.Tenants, sc.QoSSLOCycles)
	if err != nil {
		return err
	}
	rows := [][]string{}
	for _, ts := range res.Tenants {
		rows = append(rows, []string{
			ts.Name,
			fmt.Sprintf("%d", ts.Priority),
			fmt.Sprintf("%d", ts.Weight),
			fmt.Sprintf("%.1f", float64(ts.ServedBytes)/(1<<20)),
			fmt.Sprintf("%.0f", ts.Latency.P50),
			fmt.Sprintf("%.0f", ts.Latency.P99),
			fmt.Sprintf("%d", ts.Submitted),
			fmt.Sprintf("%d", ts.Rejected),
		})
	}
	fmt.Fprint(w, exp.FormatTable(
		[]string{"Tenant", "Prio", "Weight", "Served MiB", "p50 cyc", "p99 cyc", "Submitted", "Rejected"}, rows))
	verdict := func(ok bool) string {
		if ok {
			return "met"
		}
		return "MISSED"
	}
	fmt.Fprintf(w,
		"latency tenant p99 vs SLO %.0f cycles: %s | %d closed-loop bursts under %d batch tenants\n",
		res.SLOCycles, verdict(res.SLOMet), res.Bursts, res.BatchTenants)
	fmt.Fprintf(w,
		"heavy batch share %.3f vs entitled %.3f (weights %d:1, steady window %d MiB): %s\n",
		res.HeavyShare, res.EntitledShare, exp.QoSHeavyWeight, res.BatchBytes>>20, verdict(res.ShareMet))
	_, err = fmt.Fprintf(w,
		"admission control: over-quota Malloc rejected typed=%v; %d shards, wall %.2fs\n",
		res.QuotaRejected, res.Shards, res.WallSeconds)
	return err
}

// SimConfig exposes the Tab. 2 performance-simulator configuration for
// advanced users of the timing model.
type SimConfig = gpusim.Config

// DefaultSimConfig returns Tab. 2.
func DefaultSimConfig() SimConfig { return gpusim.DefaultConfig() }
