package workload

import (
	"fmt"
	"math/rand"

	"mcmpart/internal/graph"
	"mcmpart/internal/randgraph"
)

// Dataset is the pre-training corpus split exactly as in Sec. 5.1: 87 ML
// models partitioned at random into 66 training graphs, 5 validation graphs
// and 16 test graphs.
type Dataset struct {
	Train      []*graph.Graph
	Validation []*graph.Graph
	Test       []*graph.Graph
}

// CorpusSize is the number of models in the pre-training corpus.
const CorpusSize = 87

// Corpus generates the 87-model corpus and splits it 66/5/16. The split (and
// every model) is fully determined by the seed, so workers across the
// pre-training pipeline see the same dataset. The corpus mirrors the paper's
// description: computer-vision CNNs and language RNN/MLP models with tens to
// hundreds of nodes and no Transformer-style attention.
func Corpus(seed int64) *Dataset {
	graphs := CorpusGraphs(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eedf00d))
	rng.Shuffle(len(graphs), func(i, j int) { graphs[i], graphs[j] = graphs[j], graphs[i] })
	return &Dataset{
		Train:      graphs[:66],
		Validation: graphs[66:71],
		Test:       graphs[71:],
	}
}

// AugmentedCorpusGraphs is CorpusGraphs plus an opt-in stream of generated
// random graphs (internal/randgraph): random == 0 returns exactly
// CorpusGraphs(seed), keeping the paper-faithful 87-model corpus the default.
// With random > 0, the generated graphs randgraph.Sample(seed, 0..random-1)
// — layered, branchy, diamond, and skewed-MoE families — follow the corpus
// models, so pre-training consumes scenarios the hand-built families never
// produce.
func AugmentedCorpusGraphs(seed int64, random int) []*graph.Graph {
	graphs := CorpusGraphs(seed)
	for i := 0; i < random; i++ {
		graphs = append(graphs, randgraph.Sample(seed, i))
	}
	return graphs
}

// CorpusGraphs generates the 87 corpus models (without splitting). Models
// rotate through five families — chain CNNs, residual CNNs, inception CNNs,
// unrolled RNN/LSTMs and MLPs — with per-model shapes drawn from the seed.
func CorpusGraphs(seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, 0, CorpusSize)
	for i := 0; i < CorpusSize; i++ {
		var g *graph.Graph
		switch i % 5 {
		case 0:
			g = ChainCNN(CNNConfig{
				Name:           fmt.Sprintf("chaincnn-%02d", i),
				InputSize:      32 << rng.Intn(2),  // 32 or 64
				Channels:       128 << rng.Intn(3), // 128/256/512
				Stages:         2 + rng.Intn(3),
				BlocksPerStage: 2 + rng.Intn(4),
				Classes:        10 + rng.Intn(990),
			})
		case 1:
			g = ResidualCNN(CNNConfig{
				Name:           fmt.Sprintf("resnet-%02d", i),
				InputSize:      32 << rng.Intn(2),
				Channels:       128 << rng.Intn(3),
				Stages:         2 + rng.Intn(3),
				BlocksPerStage: 2 + rng.Intn(4),
				Classes:        10 + rng.Intn(990),
			})
		case 2:
			g = InceptionCNN(CNNConfig{
				Name:           fmt.Sprintf("inception-%02d", i),
				InputSize:      32 << rng.Intn(2),
				Channels:       128 << rng.Intn(2), // 128/256, divisible by 4
				Stages:         1 + rng.Intn(3),
				BlocksPerStage: 2 + rng.Intn(3),
				Classes:        10 + rng.Intn(990),
			})
		case 3:
			cfg := RNNConfig{
				Name:   fmt.Sprintf("rnn-%02d", i),
				Steps:  8 + rng.Intn(17), // 8..24
				Input:  128 << rng.Intn(3),
				Hidden: 512 << rng.Intn(3), // 512..2048
				Vocab:  1000 + rng.Intn(9000),
				Batch:  16 << rng.Intn(3), // 16/32/64
			}
			if rng.Intn(2) == 0 {
				cfg.Name = fmt.Sprintf("lstm-%02d", i)
				g = UnrolledLSTM(cfg)
			} else {
				g = UnrolledRNN(cfg)
			}
		default:
			g = MLP(MLPConfig{
				Name:   fmt.Sprintf("mlp-%02d", i),
				Layers: 6 + rng.Intn(19), // 6..24
				Input:  256 << rng.Intn(3),
				Hidden: 1024 << rng.Intn(3), // 1024..4096
				Output: 10 + rng.Intn(990),
				Batch:  16 << rng.Intn(3),
			})
		}
		graphs = append(graphs, g)
	}
	return graphs
}
