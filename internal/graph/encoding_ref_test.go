package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// refGraphJSON and refUnmarshalJSON are the decode the single-pass decoder in
// encoding.go replaced — encoding/json into a struct, then Validate — kept
// verbatim from the commit before it (fa77c33, internal/graph/encoding.go:
// 9-14 and 27-43; graphJSON prefixed with ref, the method turned into a
// function, nothing else) as the reference the decoder must equal: the same
// accept/reject and the same name, nodes and edges, document for document.
// From the repository root,
//
//	git show fa77c33:internal/graph/encoding.go | sed -n '9,14p;27,43p' |
//	  sed -e 's/graphJSON/refGraphJSON/g' \
//	      -e 's/func (g \*Graph) UnmarshalJSON(data/func refUnmarshalJSON(g *Graph, data/' |
//	  diff - <(sed -n '/^\/\/ refGraphJSON is the on-disk/,/^}$/p;/^func refUnmarshalJSON/,/^}$/p' internal/graph/encoding_ref_test.go)
//
// prints nothing.

// refGraphJSON is the on-disk representation of a Graph.
type refGraphJSON struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

func refUnmarshalJSON(g *Graph, data []byte) error {
	var gj refGraphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return err
	}
	fresh := &Graph{name: gj.Name, nodes: gj.Nodes, edges: gj.Edges}
	if err := fresh.Validate(); err != nil {
		return err
	}
	// The memo must be replaced along with the structure: the counts it is
	// checked against cannot tell this graph from the one it overwrites.
	// fresh's record describes exactly the structure g now has, and already
	// holds the adjacency and layout Validate built.
	g.name, g.nodes, g.edges = fresh.name, fresh.nodes, fresh.edges
	g.memo.Store(fresh.memo.Load())
	return nil
}

// repeatsArray reports, with encoding/json's own tokenizer, whether data's
// top-level object holds more than one array under nodes or more than one
// under edges. Those are the documents of the decoder's one deliberate
// departure from the reference inside a graph: the reference decodes the
// second array over the first element by element (a reflect quirk that let
// one node be assembled from two places), the decoder rejects it.
func repeatsArray(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	var nodes, edges int
	for dec.More() {
		tok, err := dec.Token()
		key, ok := tok.(string)
		var value json.RawMessage
		if err != nil || !ok || dec.Decode(&value) != nil {
			return false
		}
		if value[0] != '[' {
			continue
		}
		switch {
		case strings.EqualFold(key, "nodes"):
			nodes++
		case strings.EqualFold(key, "edges"):
			edges++
		}
	}
	return nodes > 1 || edges > 1
}

// checkDecodeMatchesReference decodes data with UnmarshalJSON and with the
// reference and fails t unless they agree: both reject, or both accept and
// hold the same name, nodes (FLOPs bit for bit) and edges, nil where the
// other is nil. A document that repeats an array must be rejected, whatever
// the reference makes of it. It reports whether data was accepted.
func checkDecodeMatchesReference(t testing.TB, data []byte) bool {
	t.Helper()
	var got, want Graph
	gotErr, wantErr := got.UnmarshalJSON(data), refUnmarshalJSON(&want, data)
	if repeatsArray(data) {
		if gotErr == nil {
			t.Fatalf("a second nodes or edges array was accepted: %.200q", data)
		}
		return false
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decoder: %v\nreference: %v\ndocument: %.200q", gotErr, wantErr, data)
	}
	if gotErr != nil {
		return false
	}
	if err := sameDecodedGraph(&got, &want); err != nil {
		t.Fatalf("%v\ndocument: %.200q", err, data)
	}
	return true
}

func sameDecodedGraph(got, want *Graph) error {
	if got.name != want.name {
		return fmt.Errorf("name %q, reference %q", got.name, want.name)
	}
	if len(got.nodes) != len(want.nodes) || (got.nodes == nil) != (want.nodes == nil) {
		return fmt.Errorf("%d nodes (nil: %t), reference %d (nil: %t)", len(got.nodes), got.nodes == nil, len(want.nodes), want.nodes == nil)
	}
	for i, n := range got.nodes {
		w := want.nodes[i]
		bits, wbits := math.Float64bits(n.FLOPs), math.Float64bits(w.FLOPs)
		n.FLOPs, w.FLOPs = 0, 0
		if n != w || bits != wbits {
			return fmt.Errorf("node %d: %+v (FLOPs bits %#x), reference %+v (%#x)", i, n, bits, w, wbits)
		}
	}
	if !slices.Equal(got.edges, want.edges) || (got.edges == nil) != (want.edges == nil) {
		return fmt.Errorf("edges differ from the reference (%d, nil: %t; reference %d, nil: %t)", len(got.edges), got.edges == nil, len(want.edges), want.edges == nil)
	}
	return nil
}

// nest returns `open` written depth times, a 1 inside, and the matching
// closers: depth levels of arrays ("[") or of single-member objects (`{"a":`).
func nest(open string, depth int) string {
	closer := "]"
	if strings.HasPrefix(open, "{") {
		closer = "}"
	}
	return strings.Repeat(open, depth) + "1" + strings.Repeat(closer, depth)
}

// decodeCases is the hand table of TestDecodeMatchesReference and the seed
// corpus of FuzzParseJSON: one document per rule of the wire grammar
// (DESIGN.md §8), each marked with whether it is a graph. The verdict is
// checked against the table and against the reference, so a rule cannot
// drift with the reference's blessing or the table's alone.
var decodeCases = []struct {
	Name   string
	Doc    string
	Accept bool
}{
	// Strings: plain tokens are their bytes, the rest are encoding/json's.
	{"escapes in names", `{"name":"a\"b\\c\/d\b\f\n\r\t","nodes":[{"id":0,"name":"tab\there","op":4}]}`, true},
	{"\\u escapes and a surrogate pair", `{"name":"é😀","nodes":[{"id":0,"name":"A𝄞","op":4}]}`, true},
	{"lone surrogates become U+FFFD", `{"nodes":[{"id":0,"name":"\ud800 and \udc00","op":4}]}`, true},
	{"multi-byte UTF-8 taken as bytes", `{"name":"graphe-é-世界","nodes":[{"id":0,"name":"nœud","op":4}]}`, true},
	{"invalid UTF-8 in names is replaced", "{\"name\":\"a\xffb\",\"nodes\":[{\"id\":0,\"name\":\"\xc3(\xe2\x82\",\"op\":4}]}", true},
	{"invalid UTF-8 in an unknown member name", "{\"n\xffodes\":1,\"nodes\":[{\"id\":0,\"op\":4}]}", true},
	{"escaped member names", `{"nodes":[{"id":0,"op":4,"name":"x"}]}`, true},
	{"bad escape", `{"name":"\x","nodes":[{"id":0,"op":4}]}`, false},
	{"short \\u escape", `{"name":"\u12","nodes":[{"id":0,"op":4}]}`, false},
	{"bad escape in an unknown member", `{"x":"\q","nodes":[{"id":0,"op":4}]}`, false},
	{"control character in a string", "{\"name\":\"a\nb\",\"nodes\":[{\"id\":0,\"op\":4}]}", false},
	{"unterminated string", `{"name":"abc`, false},
	// Member names: exact bytes, else Unicode case folding.
	{"case-folded members", `{"NAME":"G","Nodes":[{"ID":0,"Name":"N","OP":4,"Flops":2,"PARAM_BYTES":3,"Output_Bytes":5},{"iD":1,"oP":7}],"EDGES":[{"From":0,"TO":1,"Bytes":5}]}`, true},
	{"folding is Unicode's: long s", `{"nodeſ":[{"id":0,"op":4,"flopſ":3}]}`, true},
	{"near-miss names are unknown members", `{"node":[1],"nodes ":2,"nodes":[{"id":0,"op":4,"i d":9,"param-bytes":"x"}]}`, true},
	// Duplicates: the last scalar stands; a null leaves what was there.
	{"duplicate scalars, last wins", `{"name":"a","name":"b","nodes":[{"id":5,"id":0,"op":99,"OP":4,"name":"x","name":"yy","name":"z","flops":1,"flops":2}]}`, true},
	{"null after a value keeps it", `{"name":"a","name":null,"nodes":[{"id":0,"id":null,"op":4,"op":null,"name":"x","name":null,"flops":2,"flops":null}]}`, true},
	{"null everywhere", `{"name":null,"nodes":[{"id":null,"name":null,"op":null,"flops":null,"param_bytes":null,"output_bytes":null}],"edges":null}`, true},
	{"null elements are zero values", `{"nodes":[null,{"id":1,"op":4}],"edges":[null]}`, false}, // the zero edge is a self-loop
	{"a null node is a zero node", `{"nodes":[null]}`, true},
	{"null nodes", `{"nodes":null,"edges":null}`, false},
	{"null after the nodes array empties it", `{"nodes":[{"id":0,"op":4}],"nodes":null}`, false},
	{"null before the nodes array", `{"nodes":null,"nodes":[{"id":0,"op":4}],"edges":null,"edges":[]}`, true},
	{"empty and absent edges", `{"nodes":[{"id":0,"op":4}],"edges":[]}`, true},
	{"top-level null", `null`, false},
	// Numbers: an integer member takes an integer literal in range.
	{"-0", `{"nodes":[{"id":-0,"op":4,"flops":-0,"param_bytes":-0,"output_bytes":-0}]}`, true},
	{"-0 is not an op", `{"nodes":[{"id":0,"op":-0}]}`, false},
	{"fraction in an integer member", `{"nodes":[{"id":0.0,"op":4}]}`, false},
	{"fraction in op", `{"nodes":[{"id":0,"op":4.0}]}`, false},
	{"exponent in an integer member", `{"nodes":[{"id":0,"op":4,"param_bytes":1e3}]}`, false},
	{"exponent in an edge", `{"nodes":[{"id":0,"op":4},{"id":1,"op":4}],"edges":[{"from":0,"to":1E0,"bytes":1}]}`, false},
	{"string in an integer member", `{"nodes":[{"id":"0","op":4}]}`, false},
	{"op 255 parses, Validate refuses it", `{"nodes":[{"id":0,"op":255}]}`, false},
	{"op 256", `{"nodes":[{"id":0,"op":256}]}`, false},
	{"op 16", `{"nodes":[{"id":0,"op":16}]}`, false},
	{"flops forms", `{"nodes":[{"id":0,"op":4,"flops":1.5e+3},{"id":1,"op":4,"flops":0.1E-2},{"id":2,"op":4,"flops":123456789012345678901234567890},{"id":3,"op":4,"flops":4.9e-324},{"id":4,"op":4,"flops":1e-999}]}`, true},
	{"flops overflow", `{"nodes":[{"id":0,"op":4,"flops":1e999}]}`, false},
	{"flops as a string", `{"nodes":[{"id":0,"op":4,"flops":"1"}]}`, false},
	{"int64 extremes", `{"nodes":[{"id":0,"op":4,"param_bytes":9223372036854775807,"output_bytes":9223372036854775807}]}`, true},
	{"int64 minimum parses, Validate refuses it", `{"nodes":[{"id":0,"op":4,"param_bytes":-9223372036854775808}]}`, false},
	{"int64 overflow", `{"nodes":[{"id":0,"op":4,"param_bytes":9223372036854775808}]}`, false},
	{"int64 underflow", `{"nodes":[{"id":0,"op":4,"param_bytes":-9223372036854775809}]}`, false},
	{"uint64 overflow", `{"nodes":[{"id":0,"op":4,"param_bytes":18446744073709551616}]}`, false},
	{"thirty digits", `{"nodes":[{"id":0,"op":4,"param_bytes":100000000000000000000000000000}]}`, false},
	{"leading zero", `{"nodes":[{"id":00,"op":4}]}`, false},
	{"leading zeros in flops", `{"nodes":[{"id":0,"op":4,"flops":01.5}]}`, false},
	{"leading zero in an unknown member", `{"x":012,"nodes":[{"id":0,"op":4}]}`, false},
	{"bare minus", `{"nodes":[{"id":-,"op":4}]}`, false},
	{"plus sign", `{"nodes":[{"id":+0,"op":4}]}`, false},
	{"trailing decimal point", `{"nodes":[{"id":0,"op":4,"flops":1.}]}`, false},
	{"leading decimal point", `{"nodes":[{"id":0,"op":4,"flops":.5}]}`, false},
	{"empty exponent", `{"nodes":[{"id":0,"op":4,"flops":1e}]}`, false},
	{"hexadecimal", `{"nodes":[{"id":0x0,"op":4}]}`, false},
	{"number run into a letter", `{"nodes":[{"id":0,"op":4a}]}`, false},
	{"NaN", `{"nodes":[{"id":0,"op":4,"flops":NaN}]}`, false},
	// Whitespace: the four of RFC 8259, between any two tokens.
	{"whitespace between every token", " \t\r\n{ \"name\" \t: \"g\" \r, \"nodes\" : \n[ { \"id\" : 0 , \"op\" : 4 , \"flops\" : 1.5 } \t, { \"id\" : 1 , \"op\" : 7 } ] , \"edges\" : [ { \"from\" : 0 , \"to\" : 1 , \"bytes\" : 8 } ] , \"x\" : [ 1 , { \"a\" : null } ] } \r\n\t ", true},
	{"form feed is not whitespace", "{\"nodes\":\f[{\"id\":0,\"op\":4}]}", false},
	{"byte order mark", "\xef\xbb\xbf{\"nodes\":[{\"id\":0,\"op\":4}]}", false},
	// Unknown members are skipped, syntax checked, nesting bounded.
	{"unknown members of every type", `{"version":2,"meta":{"a":[1,2.5e3,{"b":null}],"c":"d\n","e":true,"f":false,"g":{},"h":[]},"nodes":[{"id":0,"op":4,"attrs":{"k":[[],[{}]]},"tags":["x"]}],"edges":[],"trailer":[[[]]]}`, true},
	{"broken value in an unknown member", `{"x":[1,],"nodes":[{"id":0,"op":4}]}`, false},
	{"broken object in an unknown member", `{"x":{"a" 1},"nodes":[{"id":0,"op":4}]}`, false},
	{"mismatched brackets in an unknown member", `{"x":[{"a":1]},"nodes":[{"id":0,"op":4}]}`, false},
	{"misspelt literal in an unknown member", `{"x":nul,"nodes":[{"id":0,"op":4}]}`, false},
	{"arrays 10 000 deep with the graph around them", `{"nodes":[{"id":0,"op":4}],"x":` + nest("[", 9_999) + `}`, true},
	{"arrays 10 001 deep", `{"nodes":[{"id":0,"op":4}],"x":` + nest("[", 10_000) + `}`, false},
	{"objects 10 000 deep inside a node", `{"nodes":[{"id":0,"op":4,"x":` + nest(`{"a":`, 9_997) + `}]}`, true},
	{"objects 10 001 deep inside a node", `{"nodes":[{"id":0,"op":4,"x":` + nest(`{"a":`, 9_998) + `}]}`, false},
	{"arrays 100 000 deep", `{"x":` + strings.Repeat("[", 100_000), false},
	// Wrong value types.
	{"graph is an array", `[]`, false},
	{"graph is a number", `7`, false},
	{"graph is a string", `"graph"`, false},
	{"name is a number", `{"name":1,"nodes":[{"id":0,"op":4}]}`, false},
	{"nodes is an object", `{"nodes":{"id":0,"op":4}}`, false},
	{"nodes is a string", `{"nodes":"none"}`, false},
	{"a node is a number", `{"nodes":[0]}`, false},
	{"a node is an array", `{"nodes":[[]]}`, false},
	{"a node name is an array", `{"nodes":[{"id":0,"op":4,"name":["x"]}]}`, false},
	{"an edge is a string", `{"nodes":[{"id":0,"op":4}],"edges":["0-1"]}`, false},
	{"edges is true", `{"nodes":[{"id":0,"op":4}],"edges":true}`, false},
	{"id is true", `{"nodes":[{"id":true,"op":4}]}`, false},
	{"id is an object", `{"nodes":[{"id":{},"op":4}]}`, false},
	// Structure.
	{"empty document", ``, false},
	{"only whitespace", " \n", false},
	{"trailing comma in nodes", `{"nodes":[{"id":0,"op":4},]}`, false},
	{"trailing comma in a node", `{"nodes":[{"id":0,"op":4,}]}`, false},
	{"missing comma", `{"nodes":[{"id":0 "op":4}]}`, false},
	{"missing colon", `{"nodes" [{"id":0,"op":4}]}`, false},
	{"unquoted member name", `{nodes:[{"id":0,"op":4}]}`, false},
	{"single quotes", `{'nodes':[{'id':0,'op':4}]}`, false},
	{"data after the graph", `{"nodes":[{"id":0,"op":4}]} {}`, false},
	{"bracket after the graph", `{"nodes":[{"id":0,"op":4}]}]`, false},
	{"comment", `{"nodes":[{"id":0,"op":4}] /* one node */}`, false},
}

// repeatedArrayCases are the first of the decoder's two deliberate
// tightenings: the reference decodes a second array over the first, element
// by element; the decoder refuses the document.
var repeatedArrayCases = []string{
	`{"nodes":[{"id":0,"op":4}],"nodes":[{"name":"assembled from two places"}]}`,
	`{"nodes":[{"id":0,"op":4}],"NODES":[{"id":0,"op":4}]}`,
	`{"nodes":[],"nodes":[{"id":0,"op":4}]}`,
	`{"nodes":[{"id":0,"op":4}],"nodes":null,"nodes":[{"id":0,"op":4}]}`,
	`{"nodes":[{"id":0,"op":4},{"id":1,"op":4}],"edges":[{"from":0,"to":1,"bytes":1}],"edges":[{"bytes":2}]}`,
	`{"nodes":[{"id":0,"op":4}],"edges":[],"Edges":[]}`,
}
