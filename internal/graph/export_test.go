package graph

import (
	"encoding/binary"
	"fmt"
)

// RefFingerprint is the canonicalizer of the commit before the worklist
// refinement (fingerprint_ref_test.go), for the external differential tests.
// It computes the v=2 fingerprint: SHA-256 signatures and attribute digests.
var RefFingerprint = refFingerprint

// RefPositions is what the reference refinement makes of the current 64-bit
// signatures, each passed as its 8-byte big-endian encoding: byte order is
// then numeric order, so the reference starts from the partition
// canonicalPositions starts from. Nil, like CanonicalPositions, for a graph
// with no nodes or a cycle.
func RefPositions(g *Graph) []int {
	lay, err := g.Layout()
	if err != nil || g.NumNodes() == 0 {
		return nil
	}
	sig := signatures(g, lay.Order)
	b := make([][]byte, len(sig))
	for v, s := range sig {
		b[v] = binary.BigEndian.AppendUint64(nil, s)
	}
	return refCanonicalPositions(g, b)
}

// SameKeyPartition checks that the fingerprint and the reference's v=2
// fingerprint partition graphs alike: two of them share a fingerprint iff
// they share a v=2 fingerprint, so the key change merges no keys and splits
// none.
func SameKeyPartition(graphs []*Graph) error {
	v2of, v3of := map[string]string{}, map[string]string{}
	names := map[string]string{} // v=3 fingerprint -> first graph with it
	for _, g := range graphs {
		v3 := g.Fingerprint()
		v2, _ := refFingerprint(g)
		if w, ok := v2of[v3]; ok && w != v2 {
			return fmt.Errorf("%s and %s share a fingerprint but not a v=2 fingerprint", g, names[v3])
		}
		if w, ok := v3of[v2]; ok && w != v3 {
			return fmt.Errorf("%s and %s share a v=2 fingerprint but not a fingerprint", g, names[w])
		}
		if _, ok := names[v3]; !ok {
			names[v3] = g.String()
		}
		v2of[v3], v3of[v2] = v2, v3
	}
	return nil
}

// CanonicalKeysComputed returns how many per-node refinement keys
// canonicalizing g takes (g must be acyclic and non-empty).
func CanonicalKeysComputed(g *Graph) int {
	lay, err := g.Layout()
	if err != nil {
		panic(err)
	}
	_, keyed := canonicalPositions(g, signatures(g, lay.Order))
	return keyed
}

// CheckDecodeMatchesReference diffs UnmarshalJSON against the encoding/json
// decode it replaced (encoding_ref_test.go), for the external tests.
var CheckDecodeMatchesReference = checkDecodeMatchesReference

// RefUnmarshalJSON is the reference decode itself.
var RefUnmarshalJSON = refUnmarshalJSON

// DecodeCases and RepeatedArrayCases are the hand table of the wire grammar.
var (
	DecodeCases        = decodeCases
	RepeatedArrayCases = repeatedArrayCases
)
