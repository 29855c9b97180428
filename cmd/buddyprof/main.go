// Command buddyprof runs the paper's profiling pass (§3.4) on one Tab. 1
// workload and prints the per-allocation target compression ratios a user
// (or DL framework) would use to annotate cudaMalloc calls.
//
// Usage:
//
//	buddyprof -bench VGG16
//	buddyprof -bench 351.palm -threshold 0.4 -no-zeropage
package main

import (
	"flag"
	"fmt"
	"os"

	"buddy"
	"buddy/internal/workloads"
)

func main() {
	bench := flag.String("bench", "", "Tab. 1 benchmark name (e.g. 351.palm, VGG16)")
	threshold := flag.Float64("threshold", 0.30, "Buddy Threshold (max overflow fraction, 0 to 1)")
	noZeroPage := flag.Bool("no-zeropage", false, "disable the 16x mostly-zero optimization")
	scale := flag.Int("scale", workloads.DefaultScale, "footprint divisor for synthesis")
	codec := flag.String("codec", "bpc", "compression algorithm (bpc, bdi, fpc, fvc, cpack, zero)")
	flag.Parse()

	c, err := buddy.CodecByName(*codec)
	if err == nil {
		err = checkFlags(*threshold, *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "buddyprof:", err)
		os.Exit(2)
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "buddyprof: -bench is required; available workloads:")
		for _, b := range buddy.Workloads() {
			fmt.Fprintf(os.Stderr, "  %s\n", b.Name)
		}
		fmt.Fprintln(os.Stderr, "whole-suite profiling figures run in buddysim (e.g. buddysim -exp fig9 -quick)")
		os.Exit(2)
	}
	b, err := buddy.WorkloadByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buddyprof:", err)
		os.Exit(1)
	}
	snaps := buddy.GenerateRun(b, *scale)
	opt := buddy.FinalDesign()
	opt.Threshold = *threshold
	opt.ZeroPage = !*noZeroPage
	res := buddy.Profile(snaps, c, opt)

	fmt.Printf("%s: profiling over %d snapshots (Buddy Threshold %.0f%%)\n",
		b.Name, len(snaps), *threshold*100)
	for _, p := range res.Allocations {
		fmt.Printf("  %-18s target %-6s overflow %5.1f%%  sector histogram %v\n",
			p.Name, p.Target, p.OverflowFrac*100, p.Hist)
	}
	fmt.Printf("compression %.2fx, expected buddy-access fraction %.2f%%, best achievable %.2fx\n",
		res.CompressionRatio, res.BuddyAccessFraction*100, res.BestAchievable)
}

// checkFlags rejects a Buddy Threshold outside [0, 1] (NaN too) and a
// footprint divisor below 1.
func checkFlags(threshold float64, scale int) error {
	if !(threshold >= 0 && threshold <= 1) {
		return fmt.Errorf("-threshold %v is outside [0, 1]", threshold)
	}
	if scale < 1 {
		return fmt.Errorf("-scale %d is below 1", scale)
	}
	return nil
}
