package nn

import (
	"fmt"
	"math"
	"sort"
)

// Snapshot captures parameter values by name for checkpointing. Gradients
// and optimizer state are not part of a snapshot: the pre-training pipeline
// evaluates checkpoints with fresh optimizers, as the paper's validation
// worker does.
type Snapshot map[string][]float64

// TakeSnapshot copies the current parameter values.
func TakeSnapshot(params []*Param) Snapshot {
	s := make(Snapshot, len(params))
	for _, p := range params {
		s[p.Name] = append([]float64(nil), p.Value.Data...)
	}
	return s
}

// Restore writes the snapshot back into the parameters. Every parameter
// must be present with a matching length; mismatches report the parameter
// name and the expected length so a checkpoint taken from a different
// network shape fails loudly instead of scrambling weights.
func (s Snapshot) Restore(params []*Param) error {
	for _, p := range params {
		data, ok := s[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot missing parameter %q (want %d values)", p.Name, len(p.Value.Data))
		}
		if len(data) != len(p.Value.Data) {
			return fmt.Errorf("nn: snapshot parameter %q has %d values, want %d",
				p.Name, len(data), len(p.Value.Data))
		}
		copy(p.Value.Data, data)
	}
	if len(s) > len(params) {
		// Extra entries mean the snapshot came from a different network;
		// report one concrete name to make the mismatch debuggable.
		known := make(map[string]bool, len(params))
		for _, p := range params {
			known[p.Name] = true
		}
		extras := make([]string, 0, len(s)-len(params))
		for name := range s {
			if !known[name] {
				extras = append(extras, name)
			}
		}
		sort.Strings(extras)
		return fmt.Errorf("nn: snapshot has %d unknown parameter(s), e.g. %q", len(extras), extras[0])
	}
	return nil
}

// Validate rejects snapshots carrying non-finite weights (a corrupt or
// hand-edited checkpoint file), naming the offending parameter and index.
// Parameter names are visited in sorted order so the reported error is
// deterministic.
func (s Snapshot) Validate() error {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, v := range s[name] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: snapshot parameter %q has non-finite value %v at index %d", name, v, i)
			}
		}
	}
	return nil
}
