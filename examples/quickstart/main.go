// Quickstart: build the paper's NUBA GPU, run one benchmark, and print
// the headline statistics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/nuba-gpu/nuba"
)

func main() {
	// The three headline systems of the paper. Scale(0.5) gives a 32-SM
	// GPU so the example finishes in seconds; drop it for the full
	// 64-SM Table 1 configuration.
	uba := nuba.Baseline().Scale(0.5)
	nubaCfg := nuba.NUBAConfig().Scale(0.5)

	bench, err := nuba.BenchmarkByAbbr("SGEMM")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %s on %s and %s...\n\n", bench.Name, uba.Name(), nubaCfg.Name())
	base, err := nuba.Run(context.Background(), uba, bench)
	if err != nil {
		log.Fatal(err)
	}
	res, err := nuba.Run(context.Background(), nubaCfg, bench)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %12s %12s\n", "", "UBA", "NUBA")
	fmt.Printf("%-28s %12d %12d\n", "cycles", base.Stats.Cycles, res.Stats.Cycles)
	fmt.Printf("%-28s %12.2f %12.2f\n", "warp IPC", base.Stats.IPC(), res.Stats.IPC())
	fmt.Printf("%-28s %12.3f %12.3f\n", "perceived BW (replies/cyc)",
		base.Stats.RepliesPerCycle(), res.Stats.RepliesPerCycle())
	fmt.Printf("%-28s %12.2f %12.2f\n", "local access fraction",
		base.Stats.LocalFraction(), res.Stats.LocalFraction())
	fmt.Printf("\nNUBA speedup over UBA: %.2fx\n", nuba.Speedup(res, base))
}
