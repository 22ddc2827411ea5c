package analyze

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/mcm"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/workload"
)

// analyticGoldenRow pins one analytic plan: the chip-prefix size, the
// latency as raw bits and an FNV-1a hash of the partition, or Infeasible.
type analyticGoldenRow struct {
	Preset        string `json:"preset"`
	Graph         string `json:"graph"`
	Infeasible    bool   `json:"infeasible,omitempty"`
	K             int    `json:"k,omitempty"`
	LatencyBits   string `json:"latency_bits,omitempty"`
	PartitionHash string `json:"partition_hash,omitempty"`
}

// analyticGoldenGraphs is BERT, the conformance sweep's stream
// (randgraph.Sample(1, 0..27)) and serve-warm's four 10k-node layered graphs.
func analyticGoldenGraphs() []*graph.Graph {
	graphs := []*graph.Graph{workload.BERT()}
	for i := 0; i < 28; i++ {
		graphs = append(graphs, randgraph.Sample(1, i))
	}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: 10_000, Seed: seed}))
	}
	return graphs
}

func analyticGoldenRows(t *testing.T) []analyticGoldenRow {
	names := make([]string, 0, len(mcm.Presets))
	for name := range mcm.Presets {
		names = append(names, name)
	}
	sort.Strings(names)
	graphs := analyticGoldenGraphs()
	var rows []analyticGoldenRow
	for _, name := range names {
		pkg := mcm.Presets[name]()
		for gi, g := range graphs {
			row := analyticGoldenRow{Preset: name, Graph: fmt.Sprintf("%02d-%s", gi, g.Name())}
			a, err := New(g, pkg)
			if err != nil {
				t.Fatalf("%s on %s: %v", row.Graph, name, err)
			}
			p, info, err := a.Plan(Options{})
			switch {
			case errors.Is(err, ErrInfeasible):
				row.Infeasible = true
			case err != nil:
				t.Fatalf("%s on %s: %v", row.Graph, name, err)
			default:
				h := fnv.New64a()
				for _, c := range p {
					fmt.Fprintf(h, "%d,", c)
				}
				row.K = info.Chips
				row.LatencyBits = fmt.Sprintf("%016x", math.Float64bits(info.Latency))
				row.PartitionHash = fmt.Sprintf("%016x", h.Sum64())
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestAnalyticGolden compares every analytic plan over the six presets and
// analyticGoldenGraphs with testdata/analytic_golden.json, which this same
// function wrote on fbd1aac, the last commit whose Plan tried only the chip
// counts a placement-domain probe admitted. It is never regenerated: a row
// that moves means the fast path's K choice, boundaries or latency changed.
func TestAnalyticGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/analytic_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []analyticGoldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := analyticGoldenRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
