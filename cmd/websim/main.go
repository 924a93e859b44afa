// Command websim runs the paper's future-work Apache experiment (§8):
// an open-loop web workload under each scheduler, reporting throughput
// and latency so the paper's question — does ELSC help more with
// throughput or latency here? — can be answered with data.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"elsc/internal/experiments"
	"elsc/internal/workload"
	"elsc/internal/workload/webserver"
)

func main() {
	var (
		spec     = flag.String("machine", "2P", "machine spec: "+strings.Join(experiments.Labels(experiments.AllSpecs), ", "))
		workers  = flag.Int("workers", 64, "httpd worker processes")
		requests = flag.Int("requests", 20000, "requests to serve")
		period   = flag.Uint64("arrival", 40_000, "mean cycles between arrivals")
		seed     = flag.Int64("seed", 42, "simulation seed")
	)
	flag.Parse()
	if err := experiments.CheckName(*spec, experiments.Labels(experiments.AllSpecs)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sc := experiments.DefaultScale()
	sc.Seed = *seed
	cfg := webserver.Config{Workers: *workers, Requests: *requests, ArrivalPeriod: *period}
	tab := experiments.Webserver(experiments.SpecByLabel(*spec),
		experiments.Custom(workload.WebServer, "flags", workload.WebserverWith(cfg))).Run(sc)
	fmt.Print(tab.Render())
}
