// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns report.Tables whose rows carry the
// same series the paper plots; kv3d-bench prints them and EXPERIMENTS.md
// records them against the published values.
package experiments

import (
	"fmt"
	"sort"

	"kv3d/internal/report"
)

// Options tune experiment fidelity.
type Options struct {
	// Quick trims sweeps (fewer sizes, fewer requests) for CI and unit
	// tests; the full runs are the kv3d-bench defaults.
	Quick bool
	// TracePath, when non-empty, asks experiments that drive the
	// event-level simulator (currently loadlatency) to record one
	// representative run as Chrome trace-event JSON at this path.
	// Experiments without an event-level run ignore it.
	TracePath string
}

// Result is one regenerated experiment.
type Result struct {
	ID     string
	Tables []*report.Table
}

// Runner regenerates one experiment.
type Runner func(Options) (Result, error)

var registry = map[string]Runner{
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"table4": Table4,
	"fig4":   Figure4,
	"fig5":   Figure5,
	"fig6":   Figure6,
	"fig7":   Figure7,
	"fig8":   Figure8,
}

// presentationOrder fixes the -run all sequence: the paper's tables and
// figures first, extension studies after.
var presentationOrder = []string{
	"table1", "table2", "table3", "table4",
	"fig4", "fig5", "fig6", "fig7", "fig8",
	"thermal", "eviction", "loadlatency", "multiget", "dramsim",
}

// IDs lists experiment identifiers in presentation order; anything
// registered but not in the explicit order sorts to the end.
func IDs() []string {
	rank := make(map[string]int, len(presentationOrder))
	for i, id := range presentationOrder {
		rank[id] = i
	}
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ri, iok := rank[ids[i]]
		rj, jok := rank[ids[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return ids[i] < ids[j]
		}
	})
	return ids
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(opts)
}
