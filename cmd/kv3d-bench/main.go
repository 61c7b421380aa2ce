// Command kv3d-bench regenerates the paper's tables and figures. (The
// live server is measured by `go run ./benchmark`; see BENCHMARK.json.)
//
// Usage:
//
//	kv3d-bench -run all          # every table and figure
//	kv3d-bench -run table3       # one experiment
//	kv3d-bench -run fig5 -quick  # trimmed sweep for smoke tests
//	kv3d-bench -list             # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kv3d/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	quick := flag.Bool("quick", false, "trim sweeps for a fast smoke run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "render tables as JSON instead of ASCII")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON recording of the event-level run (loadlatency) to this file")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	opts := experiments.Options{Quick: *quick, TracePath: *tracePath}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(strings.TrimSpace(id), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kv3d-bench: %v\n", err)
			os.Exit(1)
		}
		for _, t := range res.Tables {
			if *jsonOut {
				if err := t.RenderJSON(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "kv3d-bench: %v\n", err)
					os.Exit(1)
				}
			} else {
				t.Render(os.Stdout)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", res.ID, time.Since(start).Round(time.Millisecond))
	}
}
