// Command buddysim regenerates the tables and figures of the Buddy
// Compression paper (ISCA 2020) from the reproduction library. Experiments
// are listed in the experiment table of internal/exp.
//
// Usage:
//
//	buddysim -exp fig7            # one experiment at reference fidelity
//	buddysim -exp all -quick      # every experiment, smoke fidelity
//	buddysim -list                # list the experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"buddy/internal/exp"
)

func main() {
	expName := flag.String("exp", "", "experiment id (see -list; or 'all')")
	quick := flag.Bool("quick", false, "run at smoke fidelity (seconds instead of minutes)")
	list := flag.Bool("list", false, "list the experiments")
	scale := flag.Int("scale", 0, "override workload footprint divisor (0: the preset's)")
	flag.Parse()
	if err := checkFlags(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "buddysim:", err)
		os.Exit(2)
	}

	if *list || *expName == "" {
		fmt.Println("experiments:")
		for _, e := range exp.Experiments() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Description)
		}
		if *expName == "" && !*list {
			os.Exit(2)
		}
		return
	}
	sc := exp.Reference
	if *quick {
		sc = exp.Quick
	}
	if *scale > 0 {
		sc.Workload = *scale
	}
	if err := exp.Run(os.Stdout, *expName, sc); err != nil {
		fmt.Fprintln(os.Stderr, "buddysim:", err)
		os.Exit(1)
	}
}

// checkFlags rejects a negative footprint divisor; 0 keeps the preset's.
func checkFlags(scale int) error {
	if scale < 0 {
		return fmt.Errorf("-scale %d is negative", scale)
	}
	return nil
}
