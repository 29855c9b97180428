// Command buddysim regenerates the tables and figures of the Buddy
// Compression paper (ISCA 2020) from the reproduction library. Experiments
// are listed in the buddy experiment table.
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

	"buddy"
)

func main() {
	expName := flag.String("exp", "", "experiment id (see -list; or 'all')")
	quick := flag.Bool("quick", false, "run at smoke fidelity (seconds instead of minutes)")
	list := flag.Bool("list", false, "list the experiments")
	scale := flag.Int("scale", 0, "override workload footprint divisor")
	shards := flag.Int("shards", 0, "pool width for the serve experiment (0 = default 4)")
	tenants := flag.Int("tenants", 0, "batch tenant population for the qos experiment (0 = default 2)")
	qosSLO := flag.Float64("qos", 0, "qos experiment latency p99 SLO in modeled cycles (0 = default 4000)")
	flag.Parse()

	if *list || *expName == "" {
		fmt.Println("experiments:")
		for _, e := range buddy.ExperimentRegistry() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Description)
		}
		if *expName == "" && !*list {
			os.Exit(2)
		}
		return
	}
	sc := buddy.DefaultScale()
	if *quick {
		sc = buddy.QuickScale()
	}
	if *scale > 0 {
		sc.Workload = *scale
	}
	if *shards > 0 {
		sc.Shards = *shards
	}
	if *tenants > 0 {
		sc.Tenants = *tenants
	}
	if *qosSLO > 0 {
		sc.QoSSLOCycles = *qosSLO
	}
	if err := buddy.RunExperiment(os.Stdout, *expName, sc); err != nil {
		fmt.Fprintln(os.Stderr, "buddysim:", err)
		os.Exit(1)
	}
}
