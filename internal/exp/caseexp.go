package exp

import (
	"buddy/internal/dltrain"
	"buddy/internal/nn"
	"buddy/internal/stats"
	"buddy/internal/um"
	"buddy/internal/workloads"
)

// ---------------------------------------------------------------------------
// Fig. 12: Unified Memory oversubscription
// ---------------------------------------------------------------------------

// Fig12Row is one benchmark's UM sweep.
type Fig12Row struct {
	Name string
	// Points pairs each forced-oversubscription level with relative
	// runtime (1.0 = fully resident).
	Points []um.Result
	// Pinned is the all-host-memory mode (dotted lines).
	Pinned float64
}

// Fig12Benchmarks are the three SpecAccel applications the paper measures.
var Fig12Benchmarks = []string{"360.ilbdc", "356.sp", "351.palm"}

// Fig12 reproduces the UM oversubscription study on the Power9-class
// configuration (75 GB/s link).
func Fig12() []Fig12Row {
	var rows []Fig12Row
	for _, name := range Fig12Benchmarks {
		b, err := workloads.ByName(name)
		if err != nil {
			panic(err) // static list
		}
		footprint := uint64(b.Footprint / 64)
		points, pinned := um.Sweep(b.Trace, footprint)
		rows = append(rows, Fig12Row{Name: name, Points: points, Pinned: pinned.RelativeRuntime})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Fig. 13: DL training case study
// ---------------------------------------------------------------------------

// Fig13aRow is one network's footprint sweep.
type Fig13aRow struct {
	Name   string
	Points []dltrain.Fig13aPoint
}

// Fig13a computes footprint vs. mini-batch for every network.
func Fig13a() []Fig13aRow {
	var rows []Fig13aRow
	for _, n := range dltrain.Networks() {
		rows = append(rows, Fig13aRow{Name: n.Name, Points: dltrain.Fig13a(n)})
	}
	return rows
}

// Fig13bRow is one network's throughput-speedup sweep.
type Fig13bRow struct {
	Name   string
	Points []dltrain.Fig13bPoint
}

// Fig13b computes throughput speedup vs. mini-batch.
func Fig13b() []Fig13bRow {
	var rows []Fig13bRow
	for _, n := range dltrain.Networks() {
		rows = append(rows, Fig13bRow{Name: n.Name, Points: dltrain.Fig13b(n)})
	}
	return rows
}

// Fig13cResult carries the per-network batch-scaling projections and their
// mean speedup (paper: ~14% average; VGG16 ~30%, BigLSTM ~28%).
type Fig13cResult struct {
	Rows []dltrain.Fig13cRow
	Mean float64
}

// Fig13c computes the Buddy-enabled larger-batch speedups.
func Fig13c() *Fig13cResult {
	rows := dltrain.Fig13c()
	var sp []float64
	for _, r := range rows {
		sp = append(sp, r.Speedup)
	}
	return &Fig13cResult{Rows: rows, Mean: stats.Mean(sp)}
}

// Fig13dRow is one batch size's validation-accuracy curve.
type Fig13dRow struct {
	Batch    int
	Accuracy []float64
	// Final is the mean accuracy over the last quarter of training;
	// Jitter is the standard deviation over the same window.
	Final, Jitter float64
}

// Fig13dConfig sizes the convergence study.
type Fig13dConfig struct {
	TrainSamples, ValSamples int
	Dim, Classes             int
	Epochs                   int
	Batches                  []int
	Seed                     uint64
}

// DefaultFig13dConfig keeps the study CPU-friendly while preserving the
// batch-size mechanism (see package nn).
func DefaultFig13dConfig() Fig13dConfig {
	return Fig13dConfig{
		TrainSamples: 4000,
		ValSamples:   1000,
		Dim:          32,
		Classes:      16,
		Epochs:       30,
		Batches:      []int{16, 32, 64, 128, 256},
		Seed:         7,
	}
}

// Fig13d trains the synthetic task at each mini-batch size and reports the
// validation-accuracy curves.
func Fig13d(cfg Fig13dConfig) []Fig13dRow {
	if cfg.TrainSamples == 0 {
		cfg = DefaultFig13dConfig()
	}
	train := nn.SyntheticTask(cfg.TrainSamples, cfg.Dim, cfg.Classes, cfg.Seed, cfg.Seed+1, 2.2)
	val := nn.SyntheticTask(cfg.ValSamples, cfg.Dim, cfg.Classes, cfg.Seed, cfg.Seed+2, 2.2)
	const repeats = 3 // average independent runs: SGD is noisy
	var rows []Fig13dRow
	for _, b := range cfg.Batches {
		var finals, jitters []float64
		var curve []float64
		for rep := 0; rep < repeats; rep++ {
			c := nn.ConvergenceCurve(train, val, b, cfg.Epochs, cfg.Seed+99+uint64(rep)*31)
			tail := c[len(c)*3/4:]
			finals = append(finals, stats.Mean(tail))
			jitters = append(jitters, stats.StdDev(tail))
			curve = c
		}
		rows = append(rows, Fig13dRow{
			Batch:    b,
			Accuracy: curve,
			Final:    stats.Mean(finals),
			Jitter:   stats.Mean(jitters),
		})
	}
	return rows
}
