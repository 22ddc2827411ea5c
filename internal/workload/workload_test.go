package workload

import (
	"strings"
	"testing"

	"mcmpart/internal/graph"
)

func TestChainCNNStructure(t *testing.T) {
	g := ChainCNN(CNNConfig{Name: "c", InputSize: 32, Channels: 16, Stages: 3, BlocksPerStage: 2, Classes: 10})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// A chain CNN is a pure pipeline: every node has at most one
	// predecessor and one successor.
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(v) > 1 || g.OutDegree(v) > 1 {
			t.Fatalf("node %d (%s) breaks the chain: in=%d out=%d",
				v, g.Node(v).Name, g.InDegree(v), g.OutDegree(v))
		}
	}
	if n := g.NumNodes(); n < 20 || n > 100 {
		t.Fatalf("chain CNN has %d nodes, want tens", n)
	}
}

func TestResidualCNNHasSkipEdges(t *testing.T) {
	g := ResidualCNN(CNNConfig{Name: "r", InputSize: 32, Channels: 16, Stages: 2, BlocksPerStage: 2, Classes: 10})
	joins := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.InDegree(v) == 2 {
			joins++
		}
	}
	if joins != 4 { // one residual add per block
		t.Fatalf("residual CNN has %d two-input joins, want 4", joins)
	}
}

func TestInceptionCNNHasParallelBranches(t *testing.T) {
	g := InceptionCNN(CNNConfig{Name: "i", InputSize: 32, Channels: 32, Stages: 1, BlocksPerStage: 1, Classes: 10})
	maxFanOut := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.OutDegree(v); d > maxFanOut {
			maxFanOut = d
		}
	}
	if maxFanOut < 4 {
		t.Fatalf("inception module should fan out to 4 branches, max fan-out %d", maxFanOut)
	}
	concats := 0
	for _, n := range g.Nodes() {
		if n.Op == graph.OpConcat {
			concats++
		}
	}
	if concats != 1 {
		t.Fatalf("inception has %d concats, want 1", concats)
	}
}

func TestRNNFamilies(t *testing.T) {
	rnn := UnrolledRNN(RNNConfig{Name: "r", Steps: 10, Input: 64, Hidden: 128, Vocab: 100, Batch: 8})
	lstm := UnrolledLSTM(RNNConfig{Name: "l", Steps: 10, Input: 64, Hidden: 128, Vocab: 100, Batch: 8})
	if rnn.NumNodes() >= lstm.NumNodes() {
		t.Fatalf("LSTM (%d nodes) should be bigger than RNN (%d nodes)", lstm.NumNodes(), rnn.NumNodes())
	}
	for _, g := range []*graph.Graph{rnn, lstm} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
	// Unbatched config defaults to batch 1 and still validates.
	if g := UnrolledRNN(RNNConfig{Name: "r1", Steps: 2, Input: 4, Hidden: 8}); g.NumNodes() == 0 {
		t.Fatal("empty graph")
	}
}

func TestMLPDepthControlsSize(t *testing.T) {
	small := MLP(MLPConfig{Name: "s", Layers: 3, Input: 64, Hidden: 128, Output: 10})
	big := MLP(MLPConfig{Name: "b", Layers: 12, Input: 64, Hidden: 128, Output: 10})
	if big.NumNodes() <= small.NumNodes() {
		t.Fatalf("deeper MLP should have more nodes: %d vs %d", big.NumNodes(), small.NumNodes())
	}
}

func TestBERTMatchesPaperStats(t *testing.T) {
	g := BERT()
	// Sec. 5.1: BERT "has 2138 nodes and around 340 million (600 MB)
	// parameters".
	if g.NumNodes() != 2138 {
		t.Fatalf("BERT has %d nodes, want 2138", g.NumNodes())
	}
	params := g.TotalParamBytes() / BytesPerElement
	if params < 320e6 || params > 360e6 {
		t.Fatalf("BERT has %d params, want ~340M", params)
	}
	if mb := g.TotalParamBytes() >> 20; mb < 550 || mb > 750 {
		t.Fatalf("BERT weights are %d MiB, want ~600-700", mb)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The sharded embedding must keep every single op under a chiplet's
	// SRAM (32 MiB), otherwise no valid placement exists at all.
	for _, n := range g.Nodes() {
		if n.ParamBytes > 16<<20 {
			t.Fatalf("node %s holds %d MiB of weights; too large for a chiplet", n.Name, n.ParamBytes>>20)
		}
	}
}

func TestBERTIsConfigurable(t *testing.T) {
	cfg := DefaultBERTConfig()
	cfg.Layers = 2
	cfg.SeqLen = 64
	g := BuildBERT(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() >= 2138 || g.NumNodes() < 100 {
		t.Fatalf("2-layer BERT has %d nodes", g.NumNodes())
	}
}

func TestCorpusSplitSizes(t *testing.T) {
	ds := Corpus(1)
	if len(ds.Train) != 66 || len(ds.Validation) != 5 || len(ds.Test) != 16 {
		t.Fatalf("split = %d/%d/%d, want 66/5/16", len(ds.Train), len(ds.Validation), len(ds.Test))
	}
	if n := len(ds.Train) + len(ds.Validation) + len(ds.Test); n != CorpusSize {
		t.Fatalf("splits hold %d graphs, want %d", n, CorpusSize)
	}
}

func TestCorpusMatchesPaperDescription(t *testing.T) {
	names := make(map[string]bool)
	for _, g := range CorpusGraphs(1) {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		// "The computation graphs of these ML models have tens to
		// hundreds of nodes."
		if n := g.NumNodes(); n < 10 || n > 999 {
			t.Errorf("%s has %d nodes, want tens to hundreds", g.Name(), n)
		}
		// "None of these ML graphs contain a Transformer-like attention
		// mechanism": our families never emit softmax inside the body
		// except as a classifier head, and never use OpEmbedding.
		for _, node := range g.Nodes() {
			if node.Op == graph.OpEmbedding {
				t.Errorf("%s contains embedding/attention ops", g.Name())
			}
		}
		if names[g.Name()] {
			t.Errorf("duplicate model name %s", g.Name())
		}
		names[g.Name()] = true
	}
}

func TestCorpusIsDeterministic(t *testing.T) {
	a, b := Corpus(7), Corpus(7)
	for i := range a.Train {
		if a.Train[i].Name() != b.Train[i].Name() || a.Train[i].NumNodes() != b.Train[i].NumNodes() {
			t.Fatalf("corpus not deterministic at train[%d]", i)
		}
	}
	c := Corpus(8)
	same := true
	for i := range a.Train {
		if a.Train[i].Name() != c.Train[i].Name() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should shuffle the corpus differently")
	}
}

func TestCorpusFamilyMix(t *testing.T) {
	families := map[string]int{}
	for _, g := range CorpusGraphs(3) {
		fam := strings.SplitN(g.Name(), "-", 2)[0]
		families[fam]++
	}
	for _, fam := range []string{"chaincnn", "resnet", "inception", "mlp"} {
		if families[fam] < 10 {
			t.Errorf("family %s underrepresented: %v", fam, families)
		}
	}
	if families["rnn"]+families["lstm"] < 10 {
		t.Errorf("recurrent families underrepresented: %v", families)
	}
}
