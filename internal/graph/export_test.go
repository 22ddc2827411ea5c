package graph

// RefFingerprint is the canonicalizer of the commit before the worklist
// refinement (fingerprint_ref_test.go), for the external differential tests.
var RefFingerprint = refFingerprint

// CanonicalKeysComputed returns how many per-node refinement keys
// canonicalizing g takes (g must be acyclic and non-empty).
func CanonicalKeysComputed(g *Graph) int {
	lay, err := g.Layout()
	if err != nil {
		panic(err)
	}
	_, keyed := canonicalPositions(g, signatures(g, lay.Order, attrDigests(g)))
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
