// Pageplacement demonstrates Section 4: the Local-And-Balanced (LAB) page
// placement policy against first-touch and round-robin, on one
// low-sharing and one high-sharing workload. First-touch wins on private
// data but collapses when shared pages pile onto few channels;
// round-robin is safe but never local; LAB tracks the better of the two.
//
//	go run ./examples/pageplacement
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/nuba-gpu/nuba"
)

func main() {
	policies := []nuba.PlacementPolicy{nuba.FirstTouch, nuba.RoundRobin, nuba.LAB}
	for _, abbr := range []string{"BP", "SGEMM"} {
		bench, err := nuba.BenchmarkByAbbr(abbr)
		if err != nil {
			log.Fatal(err)
		}
		class := "low-sharing"
		if bench.High {
			class = "high-sharing"
		}
		fmt.Printf("== %s (%s) on the NUBA GPU ==\n", bench.Name, class)
		var baseCycles int64
		for _, pol := range policies {
			cfg := nuba.NUBAConfig().Scale(0.5)
			cfg.Replication = nuba.NoRep // isolate placement effects
			cfg.Placement = pol
			res, err := nuba.Run(context.Background(), cfg, bench)
			if err != nil {
				log.Fatal(err)
			}
			if baseCycles == 0 {
				baseCycles = res.Stats.Cycles
			}
			fmt.Printf("  %-12s cycles=%-9d local=%.2f  vs first-touch %+.1f%%\n",
				pol, res.Stats.Cycles, res.Stats.LocalFraction(),
				(float64(baseCycles)/float64(res.Stats.Cycles)-1)*100)
		}
		fmt.Println()
	}
}
