// DL training case study (§4.4): for each network of Tab. 1, find the
// largest mini-batch a 12 GB GPU supports, apply the Buddy Compression
// ratio from the profiling pass, and project the training speedup from the
// larger feasible batch — the end-to-end Fig. 13 flow.
package main

import (
	"fmt"
	"log"
	"os"

	"buddy/internal/dltrain"
	"buddy/internal/exp"
)

func main() {
	fmt.Println("DL training with Buddy Compression on a 12 GB GPU")
	fmt.Println()

	for _, n := range dltrain.Networks() {
		base := dltrain.MaxBatch(n, dltrain.DeviceMemoryBytes)
		fmt.Printf("%-14s %6.1fM params, %5.1f MB activations/sample\n",
			n.Name, float64(n.TotalParams())/1e6,
			float64(n.TotalActivationsPerSample())*dltrain.ActivationCopies*4/(1<<20))
		fmt.Printf("  footprint: batch 16 = %.1f GB, batch 64 = %.1f GB, batch 128 = %.1f GB\n",
			gb(dltrain.Footprint(n, 16)), gb(dltrain.Footprint(n, 64)),
			gb(dltrain.Footprint(n, 128)))
		fmt.Printf("  max batch on 12 GB: %d -> throughput %.0f samples/s\n",
			base, dltrain.Throughput(n, base))
	}

	fmt.Println("\nBuddy Compression batch scaling (Fig. 13c):")
	for _, r := range dltrain.Fig13c() {
		fmt.Printf("  %-14s batch %4d -> %4d with %.2fx compression: %.0f%% faster training\n",
			r.Name, r.BaseBatch, r.CompressedBatch, ratioOf(r.Name), (r.Speedup-1)*100)
	}

	// The full Fig. 13 family is in the experiment table; render the
	// training-speedup figure through the same path cmd/buddysim uses.
	fmt.Println("\nexperiment fig13b — DL training speedup vs batch size:")
	if err := exp.Run(os.Stdout, "fig13b", exp.Quick); err != nil {
		log.Fatal(err)
	}
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }

func ratioOf(name string) float64 {
	n, ok := dltrain.ByName(name)
	if !ok {
		return 1
	}
	return n.CompressionRatio
}
