// External test package: the graph set draws on internal/workload and
// internal/randgraph, which import internal/graph.
package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/workload"
)

// layoutTestGraphs is the set the fingerprint golden and the layout
// reference-equivalence tests run over: the 87-model corpus, BERT, every
// random family at 1k and 10k nodes, and the two degenerate sizes.
func layoutTestGraphs() []*graph.Graph {
	graphs := workload.CorpusGraphs(1)
	graphs = append(graphs, workload.BERT())
	for _, fam := range randgraph.Families() {
		for _, nodes := range []int{1000, 10_000} {
			graphs = append(graphs, randgraph.Generate(randgraph.Config{Family: fam, Nodes: nodes, Seed: 16}))
		}
	}
	single := graph.New("single-node")
	single.AddNode(graph.Node{Name: "only", Op: graph.OpMatMul, FLOPs: 7, ParamBytes: 3, OutputBytes: 5})
	chain := graph.New("two-node-chain")
	a := chain.AddNode(graph.Node{Name: "a", Op: graph.OpInput, OutputBytes: 64})
	b := chain.AddNode(graph.Node{Name: "b", Op: graph.OpOutput, FLOPs: 1, OutputBytes: 64})
	chain.MustAddEdge(a, b, 64)
	return append(graphs, single, chain)
}

// fingerprintGoldenRow pins one graph's cache key and canonical order.
type fingerprintGoldenRow struct {
	Name        string `json:"name"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Fingerprint string `json:"fingerprint"`
	// PositionsSHA256 hashes CanonicalPositions as little-endian uint64s
	// (the 10k-node rows would otherwise be most of the file).
	PositionsSHA256 string `json:"positions_sha256"`
}

func fingerprintGoldenRows() []fingerprintGoldenRow {
	var rows []fingerprintGoldenRow
	for _, g := range layoutTestGraphs() {
		h := sha256.New()
		var buf [8]byte
		for _, p := range graph.CanonicalPositions(g) {
			binary.LittleEndian.PutUint64(buf[:], uint64(p))
			h.Write(buf[:])
		}
		rows = append(rows, fingerprintGoldenRow{
			Name:            g.Name(),
			Nodes:           g.NumNodes(),
			Edges:           g.NumEdges(),
			Fingerprint:     g.Fingerprint(),
			PositionsSHA256: hex.EncodeToString(h.Sum(nil)),
		})
	}
	return rows
}

// TestFingerprintGolden compares fingerprints and canonical positions with
// testdata/fingerprint_golden.json, which was written by this same function
// on the commit before Graph.Layout existed (2515b93) and regenerated once,
// by this function, when the plan-cache key went from v=2| to v=3|: 64-bit
// structural signatures order the nodes and the raw attribute records are
// hashed in place of their SHA-256 digests, which moves every fingerprint
// and canonical position (every name, node count and edge count stayed).
// TestFingerprintMatchesReference holds that change to the v=2 reference.
// Within a key version it is never regenerated: a change that moves a row
// has changed the plan-cache key.
func TestFingerprintGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/fingerprint_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []fingerprintGoldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := fingerprintGoldenRows()
	if len(got) != len(want) {
		t.Fatalf("%d graphs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
