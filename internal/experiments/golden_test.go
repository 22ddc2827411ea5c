package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"mcmpart"
)

// fig5Golden is testdata/fig5_golden.json: what det5's Figure 5 run must
// reproduce bit for bit. It was captured before the figures planned through
// the Planner, from the pipeline they replaced, and is never regenerated:
// Random and SA plan, and pre-training selects, exactly as they did there.
type fig5Golden struct {
	Config struct {
		Seed            int64 `json:"seed"`
		SampleBudget    int   `json:"sample_budget"`
		PretrainSamples int   `json:"pretrain_samples"`
		TrainGraphs     int   `json:"train_graphs"`
		TestGraphs      int   `json:"test_graphs"`
	} `json:"config"`
	// RandomBits and SABits are the methods' geomean curves and ScoresBits
	// the checkpoints' validation scores, each float64 as %016x of its bits.
	RandomBits []string `json:"random_bits"`
	SABits     []string `json:"sa_bits"`
	ScoresBits []string `json:"scores_bits"`
	BestIndex  int      `json:"best_index"`
}

// TestFigure5Golden holds det5's Random and SA curves and its pre-training
// scores and selected checkpoint to testdata/fig5_golden.json.
func TestFigure5Golden(t *testing.T) {
	data, err := os.ReadFile("testdata/fig5_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want fig5Golden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	r := det5(t, 2)
	c := want.Config
	if c.Seed != r.Cfg.Seed || c.SampleBudget != r.Cfg.SampleBudget || c.PretrainSamples != r.Cfg.PretrainSamples ||
		c.TrainGraphs != r.Cfg.TrainGraphs || c.TestGraphs != r.Cfg.TestGraphs {
		t.Fatalf("det5 runs %+v, the golden was captured at %+v", r.Cfg, c)
	}
	bits := func(xs []float64) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = fmt.Sprintf("%016x", math.Float64bits(x))
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		got, want []string
	}{
		{"Random curve", bits(r.Curves[mcmpart.MethodRandom]), want.RandomBits},
		{"SA curve", bits(r.Curves[mcmpart.MethodSA]), want.SABits},
		{"pre-training scores", bits(r.Pretrain.Scores), want.ScoresBits},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, tc.got, tc.want)
		}
	}
	if r.Pretrain.BestIndex != want.BestIndex {
		t.Errorf("selected checkpoint %d, want %d", r.Pretrain.BestIndex, want.BestIndex)
	}
}
