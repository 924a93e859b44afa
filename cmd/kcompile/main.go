// Command kcompile reproduces the paper's Table 2: the time to complete a
// simulated kernel compile (make -j4) under the stock and ELSC schedulers
// on UP and 2P machines. It is sweep's Table 2 experiment over a compile
// cell sized by this tool's own knobs (tree size, -j parallelism).
package main

import (
	"flag"
	"fmt"

	"elsc/internal/experiments"
	"elsc/internal/workload"
	"elsc/internal/workload/kbuild"
)

func main() {
	var (
		units = flag.Int("units", 320, "compilation units")
		jobs  = flag.Int("jobs", 4, "make -j parallelism")
		seed  = flag.Int64("seed", 42, "simulation seed")
	)
	flag.Parse()

	sc := experiments.DefaultScale()
	sc.Seed = *seed
	cfg := kbuild.Config{Units: *units, Jobs: *jobs}
	tab := experiments.Table2(experiments.Custom(workload.KBuild,
		fmt.Sprintf("%d units -j%d", *units, *jobs), workload.KBuildWith(cfg))).Run(sc)
	fmt.Print(tab.Render())
	fmt.Println("\nPaper's measurements: Current-UP 6:41.41, ELSC-UP 6:38.68, Current-2P 3:40.38, ELSC-2P 3:40.36.")
	fmt.Println("The claim under test is equality within noise, with a slight ELSC edge on UP.")
}
