// Command buddyheat renders the Fig. 6 spatial compressibility heat-maps:
// one row per 8 KB page, one column per 128 B memory-entry, intensity =
// compressed sector count under BPC.
//
// Usage:
//
//	buddyheat -bench FF_HPGMG               # ASCII to stdout
//	buddyheat -bench VGG16 -pgm > vgg.pgm   # grayscale image
//	buddyheat -bench 356.sp -codec bdi      # a baseline algorithm
package main

import (
	"flag"
	"fmt"
	"os"

	"buddy"
	"buddy/internal/heatmap"
	"buddy/internal/workloads"
)

func main() {
	bench := flag.String("bench", "", "Tab. 1 benchmark name")
	snapshot := flag.Int("snapshot", 5, "which of the ten memory dumps to plot")
	pgm := flag.Bool("pgm", false, "emit a plain PGM image instead of ASCII")
	rows := flag.Int("rows", 48, "ASCII rows after downsampling (0 = all)")
	scale := flag.Int("scale", 4096, "footprint divisor for synthesis")
	codec := flag.String("codec", "bpc", "compression algorithm (bpc, bdi, fpc, fvc, cpack, zero)")
	flag.Parse()

	c, err := buddy.CodecByName(*codec)
	if err == nil {
		err = checkFlags(*snapshot, *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "buddyheat:", err)
		os.Exit(2)
	}

	if *bench == "" {
		fmt.Fprintln(os.Stderr, "buddyheat: -bench is required; available workloads:")
		for _, b := range buddy.Workloads() {
			fmt.Fprintf(os.Stderr, "  %s\n", b.Name)
		}
		os.Exit(2)
	}
	b, err := buddy.WorkloadByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buddyheat:", err)
		os.Exit(1)
	}
	s := workloads.GenerateSnapshot(b, *snapshot, *scale)
	m := heatmap.Build(b.Name, s, c)
	if *pgm {
		fmt.Print(m.PGM())
		return
	}
	fmt.Print(m.ASCII(*rows))
	fmt.Printf("homogeneity index: %.3f\n", m.HomogeneityIndex())
}

// checkFlags rejects a dump no run has (outside 0..workloads.Snapshots-1)
// and a footprint divisor below 1.
func checkFlags(snapshot, scale int) error {
	if snapshot < 0 || snapshot >= workloads.Snapshots {
		return fmt.Errorf("-snapshot %d is outside 0..%d", snapshot, workloads.Snapshots-1)
	}
	if scale < 1 {
		return fmt.Errorf("-scale %d is below 1", scale)
	}
	return nil
}
