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
