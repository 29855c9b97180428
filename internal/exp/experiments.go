package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"buddy/internal/workloads"
)

// Scale is what separates a reference run of the experiment table from a
// smoke run: the footprint divisor for data synthesis (statistics are
// per-entry and scale-free) and the fraction of Tab. 2's simulated trace
// length.
type Scale struct {
	Workload int
	Sim      float64
}

var (
	// Reference runs at the repository's reference fidelity.
	Reference = Scale{Workload: workloads.DefaultScale, Sim: 1}
	// Quick runs every experiment in seconds, for CI-style smoke runs.
	Quick = Scale{Workload: 16384, Sim: 0.2}
)

// ---------------------------------------------------------------------------
// Printers: each experiment's result as the paper-style rows or series the
// experiment table (registry.go) writes
// ---------------------------------------------------------------------------

func runTab1(w io.Writer) error {
	rows := [][]string{}
	for _, r := range Table1() {
		rows = append(rows, []string{r.Name, r.Suite.String(),
			fmt.Sprintf("%.2f GB", float64(r.Footprint)/(1<<30)),
			fmt.Sprintf("%d", r.Regions)})
	}
	_, err := fmt.Fprint(w, FormatTable([]string{"Benchmark", "Suite", "Footprint", "Regions"}, rows))
	return err
}

func runFig3(w io.Writer, sc Scale) error {
	res := Fig3(sc.Workload)
	rows := [][]string{}
	for _, r := range res.Rows {
		series := make([]string, len(r.Ratios))
		for i, v := range r.Ratios {
			series[i] = fmt.Sprintf("%.2f", v)
		}
		rows = append(rows, []string{r.Name, r.Suite.String(),
			fmt.Sprintf("%.2f", r.Mean), strings.Join(series, " ")})
	}
	fmt.Fprint(w, FormatTable([]string{"Benchmark", "Suite", "Mean", "Snapshots 0..9"}, rows))
	_, err := fmt.Fprintf(w, "GMEAN_HPC %.2f (paper 2.51)   GMEAN_DL %.2f (paper 1.85)\n",
		res.GMeanHPC, res.GMeanDL)
	return err
}

func runSparse(w io.Writer, sc Scale) error {
	res := SparseSweep(sc.Workload)
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
	_, err := fmt.Fprint(w, FormatTable(header, rows))
	return err
}

func runFig5b(w io.Writer) error {
	rows := Fig5b(nil)
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
	_, err := fmt.Fprint(w, FormatTable(header, table))
	return err
}

func runFig6(w io.Writer, sc Scale) error {
	for _, m := range Fig6(sc.Workload) {
		if _, err := fmt.Fprintln(w, m.ASCII(24)); err != nil {
			return err
		}
	}
	return nil
}

func runFig7(w io.Writer, sc Scale) error {
	res := Fig7(sc.Workload)
	rows := [][]string{}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Name, r.Suite.String(),
			fmt.Sprintf("%.2fx/%4.1f%%", r.Naive.Ratio, r.Naive.BuddyFrac*100),
			fmt.Sprintf("%.2fx/%4.1f%%", r.PerAlloc.Ratio, r.PerAlloc.BuddyFrac*100),
			fmt.Sprintf("%.2fx/%4.1f%%", r.Final.Ratio, r.Final.BuddyFrac*100)})
	}
	fmt.Fprint(w, FormatTable(
		[]string{"Benchmark", "Suite", "Naive", "Per-Allocation", "Final (zero-page)"}, rows))
	_, err := fmt.Fprintf(w,
		"GMEAN  naive HPC %.2fx/%.1f%% DL %.2fx/%.1f%% | final HPC %.2fx/%.2f%% DL %.2fx/%.1f%% (paper: 1.57/8 1.18/32 | 1.9/0.08 1.5/4)\n",
		res.NaiveHPC.Ratio, res.NaiveHPC.BuddyFrac*100, res.NaiveDL.Ratio, res.NaiveDL.BuddyFrac*100,
		res.FinalHPC.Ratio, res.FinalHPC.BuddyFrac*100, res.FinalDL.Ratio, res.FinalDL.BuddyFrac*100)
	return err
}

func runFig8(w io.Writer, sc Scale) error {
	for _, r := range Fig8(sc.Workload) {
		fmt.Fprintf(w, "%s (ratio %.2fx):", r.Name, r.Points[0].Ratio)
		for _, p := range r.Points {
			fmt.Fprintf(w, " %.3f", p.BuddyFrac)
		}
		fmt.Fprintln(w, "   (buddy-access fraction per snapshot)")
	}
	return nil
}

func runFig9(w io.Writer, sc Scale) error {
	rows := Fig9(sc.Workload)
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
	_, err := fmt.Fprint(w, FormatTable(header, table))
	return err
}

func runFig10(w io.Writer, sc Scale) error {
	res := Fig10(sc.Workload, ScaledSimConfig(sc.Sim))
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

func runFig11(w io.Writer, sc Scale) error {
	res := Fig11(sc.Workload, ScaledSimConfig(sc.Sim))
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
	fmt.Fprint(w, FormatTable(header, table))
	_, err := fmt.Fprintf(w, "GMEAN bw-only %.3f (paper 1.055) | buddy@150 HPC %.3f DL %.3f (paper 0.99 / 0.978)\n",
		res.GMeanBWOnly, res.GMeanHPC150, res.GMeanDL150)
	return err
}

func runFig12(w io.Writer) error {
	for _, r := range Fig12() {
		fmt.Fprintf(w, "%-10s pinned=%.1fx  um:", r.Name, r.Pinned)
		for _, p := range r.Points {
			fmt.Fprintf(w, " %.0f%%=%.1fx", p.Oversubscription*100, p.RelativeRuntime)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig13a(w io.Writer) error {
	for _, r := range Fig13a() {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, p := range r.Points {
			fmt.Fprintf(w, " b%d=%.1fGB", p.Batch, float64(p.Footprint)/(1<<30))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig13b(w io.Writer) error {
	for _, r := range Fig13b() {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, p := range r.Points {
			fmt.Fprintf(w, " b%d=%.2fx", p.Batch, p.Speedup)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig13c(w io.Writer) error {
	res := Fig13c()
	rows := [][]string{}
	for _, r := range res.Rows {
		rows = append(rows, []string{r.Name, fmt.Sprintf("%d", r.BaseBatch),
			fmt.Sprintf("%d", r.CompressedBatch), fmt.Sprintf("%.2fx", r.Speedup)})
	}
	fmt.Fprint(w, FormatTable([]string{"Network", "Batch@12GB", "Batch w/ Buddy", "Speedup"}, rows))
	_, err := fmt.Fprintf(w, "mean speedup %.2fx (paper ~1.14x; VGG16/BigLSTM highest)\n", res.Mean)
	return err
}

func runFig13d(w io.Writer) error {
	for _, r := range Fig13d(DefaultFig13dConfig()) {
		fmt.Fprintf(w, "batch %3d: final accuracy %.3f (jitter %.4f)\n", r.Batch, r.Final, r.Jitter)
	}
	return nil
}

func runReprofile(w io.Writer, sc Scale) error {
	res, err := Reprofile(sc.Workload)
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
	fmt.Fprint(w, FormatTable(
		[]string{"Snapshot", "Buddy(stale)", "Checkpoint action", "Buddy(after)", "Ratio"}, rows))
	_, err = fmt.Fprintf(w, "%s: %d checkpoints reprofiled, %d KiB migrated (horizon %d accesses)\n",
		res.Benchmark, applied, migrated>>10, res.Horizon)
	return err
}

func runServe(w io.Writer, sc Scale) error {
	res, err := Serve(sc.Workload)
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
	fmt.Fprint(w, FormatTable(
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

func runHeal(w io.Writer, sc Scale) error {
	res, err := Heal(sc.Workload)
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
	fmt.Fprint(w, FormatTable([]string{"Round", "Modeled GB/s", "Notes"}, rows))
	_, err = fmt.Fprintf(w,
		"%d clients on %d shards; rebuild: %d entries, %d KiB over the buddy link in %s; lost bytes: %d\n",
		res.Clients, res.Shards, res.RebuiltEntries, res.RebuiltBytes>>10, res.RecoveryWall, res.LostBytes)
	return err
}

func runQoS(w io.Writer, sc Scale) error {
	res, err := QoS(sc.Workload)
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
	fmt.Fprint(w, FormatTable(
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
		res.HeavyShare, res.EntitledShare, QoSHeavyWeight, res.BatchBytes>>20, verdict(res.ShareMet))
	_, err = fmt.Fprintf(w,
		"admission control: over-quota Malloc rejected typed=%v; %d shards, wall %.2fs\n",
		res.QuotaRejected, res.Shards, res.WallSeconds)
	return err
}
