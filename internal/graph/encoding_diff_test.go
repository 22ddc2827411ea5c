package graph_test

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"

	"mcmpart/internal/graph"
	"mcmpart/internal/workload"
)

// TestDecodeMatchesReference pins the hand-written decoder to the
// encoding/json decode it replaced (encoding_ref_test.go): the same
// accept/reject and the same name, nodes and edges on every graph the
// repository generates, re-encoded, and on one document per rule of the
// wire grammar — and on a small graph cut short at every byte.
func TestDecodeMatchesReference(t *testing.T) {
	for _, g := range layoutTestGraphs() {
		body, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.CheckDecodeMatchesReference(t, body) {
			t.Errorf("%s: its own encoding was rejected", g)
		}
	}
	for _, tc := range graph.DecodeCases {
		t.Run(tc.Name, func(t *testing.T) {
			if got := graph.CheckDecodeMatchesReference(t, []byte(tc.Doc)); got != tc.Accept {
				t.Errorf("accepted: %t, the grammar says %t", got, tc.Accept)
			}
		})
	}
	for _, doc := range graph.RepeatedArrayCases {
		var ref graph.Graph
		if err := graph.RefUnmarshalJSON(&ref, []byte(doc)); err != nil {
			t.Errorf("not a tightening, the reference rejects it too (%v): %s", err, doc)
		}
		var g graph.Graph
		err := g.UnmarshalJSON([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), "a second") {
			t.Errorf("error %v, want the second array named: %s", err, doc)
		}
		graph.CheckDecodeMatchesReference(t, []byte(doc))
	}
	small := `{"name":"g","nodes":[{"id":0,"name":"aé","op":4,"flops":1.5e1,"param_bytes":3,"output_bytes":8},{"id":1,"op":7}],"edges":[{"from":0,"to":1,"bytes":8}],"x":[true,{"y":null}]}`
	for cut := 0; cut < len(small); cut++ {
		if graph.CheckDecodeMatchesReference(t, []byte(small[:cut])) {
			t.Errorf("the first %d bytes were accepted", cut)
		}
	}
	if !graph.CheckDecodeMatchesReference(t, []byte(small)) {
		t.Error("the whole document was rejected")
	}
}

// TestDecodeDoesNotAliasInput: a queued or running job holds its graph for
// the length of the plan, so the graph must hold nothing of the request
// buffer. Zeroing the buffer after the decode changes no name and not the
// fingerprint.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	cfg := workload.DefaultBERTConfig()
	cfg.Name = "bert, with a name to copy"
	src := workload.BuildBERT(cfg)
	body, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var g graph.Graph
	if err := g.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	clear(body)
	if g.Name() != src.Name() {
		t.Errorf("name %q after the buffer was zeroed", g.Name())
	}
	for i, n := range g.Nodes() {
		if n != src.Node(i) {
			t.Fatalf("node %d is %+v after the buffer was zeroed, want %+v", i, n, src.Node(i))
		}
	}
	if g.Fingerprint() != src.Fingerprint() {
		t.Error("fingerprint moved")
	}
}

// TestDecodedNamesShareOneString is the allocation claim seen from the other
// side: the names of a decoded graph lie end to end in one string, each
// starting where the one before it stops, and that string is not the body.
func TestDecodedNamesShareOneString(t *testing.T) {
	body, err := json.Marshal(layered10k())
	if err != nil {
		t.Fatal(err)
	}
	var g graph.Graph
	if err := g.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	hi := lo + uintptr(len(body))
	var next uintptr
	for i, n := range g.Nodes() {
		if n.Name == "" {
			t.Fatalf("node %d has no name; the generator names every node", i)
		}
		at := uintptr(unsafe.Pointer(unsafe.StringData(n.Name)))
		if i > 0 && at != next {
			t.Fatalf("node %d's name does not start where node %d's ends", i, i-1)
		}
		if at >= lo && at < hi {
			t.Fatalf("node %d's name points into the request body", i)
		}
		next = at + uintptr(len(n.Name))
	}
}
