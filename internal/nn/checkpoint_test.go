package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func testParams(t *testing.T) []*Param {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	l1 := NewLinear("fc1", 4, 3, rng)
	l2 := NewLinear("fc2", 3, 2, rng)
	return append(append([]*Param{}, l1.Params()...), l2.Params()...)
}

// TestRestoreErrorsNameTheParameter pins the hardening contract: every
// shape mismatch names the offending parameter and the expected length.
func TestRestoreErrorsNameTheParameter(t *testing.T) {
	params := testParams(t)
	snap := TakeSnapshot(params)

	missing := TakeSnapshot(params)
	delete(missing, "fc2.w")
	if err := missing.Restore(params); err == nil || !strings.Contains(err.Error(), `"fc2.w"`) {
		t.Fatalf("missing parameter: want error naming fc2.w, got %v", err)
	}

	short := TakeSnapshot(params)
	short["fc1.w"] = short["fc1.w"][:3]
	err := short.Restore(params)
	if err == nil || !strings.Contains(err.Error(), `"fc1.w"`) || !strings.Contains(err.Error(), "want 12") {
		t.Fatalf("wrong length: want error naming fc1.w and expected length 12, got %v", err)
	}

	extra := TakeSnapshot(params)
	extra["ghost.w"] = []float64{1}
	if err := extra.Restore(params); err == nil || !strings.Contains(err.Error(), `"ghost.w"`) {
		t.Fatalf("unknown parameter: want error naming ghost.w, got %v", err)
	}

	// The baseline snapshot still restores cleanly.
	if err := snap.Restore(params); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsNonFinite pins the corrupt-weights gate: NaN and Inf
// weights are rejected with the parameter name and index.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Snapshot{"fc1.w": {0, 1, bad, 3}}
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), `"fc1.w"`) || !strings.Contains(err.Error(), "index 2") {
			t.Fatalf("non-finite %v: want error naming fc1.w index 2, got %v", bad, err)
		}
	}
	if err := (Snapshot{"fc1.w": {0, 1, 2}}).Validate(); err != nil {
		t.Fatalf("finite snapshot must validate: %v", err)
	}
}
