package graph

import "fmt"

// OpKind identifies the kind of tensor operation a node performs.
//
// The partitioner itself is agnostic to operator semantics; the kind is used
// by the workload generators to assign realistic compute/memory costs, by the
// hardware simulator to pick per-kind efficiency factors, and by the feature
// network as a categorical node feature (one-hot encoded).
type OpKind uint8

// Operator kinds found in the synthetic model corpus. The set covers the
// CNN / RNN / MLP families the paper pre-trains on plus the transformer
// operators needed for BERT.
const (
	OpInput OpKind = iota
	OpConst
	OpConv
	OpDepthwiseConv
	OpMatMul
	OpPool
	OpActivation
	OpElementwise
	OpNorm
	OpSoftmax
	OpEmbedding
	OpReshape
	OpConcat
	OpSplit
	OpReduce
	OpOutput

	// NumOpKinds is the number of distinct operator kinds; it sizes the
	// one-hot operator feature used by the GraphSAGE encoder.
	NumOpKinds = int(OpOutput) + 1
)

var opKindNames = [...]string{
	OpInput:         "input",
	OpConst:         "const",
	OpConv:          "conv",
	OpDepthwiseConv: "depthwise_conv",
	OpMatMul:        "matmul",
	OpPool:          "pool",
	OpActivation:    "activation",
	OpElementwise:   "elementwise",
	OpNorm:          "norm",
	OpSoftmax:       "softmax",
	OpEmbedding:     "embedding",
	OpReshape:       "reshape",
	OpConcat:        "concat",
	OpSplit:         "split",
	OpReduce:        "reduce",
	OpOutput:        "output",
}

// String returns the lower-case operator name, e.g. "conv".
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}
