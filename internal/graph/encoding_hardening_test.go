package graph

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestUnmarshalRejectsStructuralDefects is the regression suite for the
// UnmarshalJSON trust boundary, pinned after fuzzing the decoder: every
// malformed wire graph must come back as a descriptive error (never a panic,
// never a silently-accepted graph).
func TestUnmarshalRejectsStructuralDefects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the expected error
	}{
		{
			name: "negative edge bytes",
			json: `{"name":"g","nodes":[{"id":0,"op":4},{"id":1,"op":4}],"edges":[{"from":0,"to":1,"bytes":-5}]}`,
			want: "negative size",
		},
		{
			name: "dangling edge endpoint",
			json: `{"name":"g","nodes":[{"id":0,"op":4}],"edges":[{"from":0,"to":7,"bytes":1}]}`,
			want: "unknown node",
		},
		{
			name: "negative edge endpoint",
			json: `{"name":"g","nodes":[{"id":0,"op":4}],"edges":[{"from":-1,"to":0,"bytes":1}]}`,
			want: "unknown node",
		},
		{
			name: "self loop",
			json: `{"name":"g","nodes":[{"id":0,"op":4}],"edges":[{"from":0,"to":0,"bytes":1}]}`,
			want: "self-loop",
		},
		{
			name: "duplicate edge",
			json: `{"name":"g","nodes":[{"id":0,"op":4},{"id":1,"op":4}],"edges":[{"from":0,"to":1,"bytes":1},{"from":0,"to":1,"bytes":2}]}`,
			want: "duplicate edge",
		},
		{
			name: "node ID mismatch",
			json: `{"name":"g","nodes":[{"id":3,"op":4}]}`,
			want: "serialized with ID",
		},
		{
			name: "cycle",
			json: `{"name":"g","nodes":[{"id":0,"op":4},{"id":1,"op":4}],"edges":[{"from":0,"to":1,"bytes":1},{"from":1,"to":0,"bytes":1}]}`,
			want: "cycle",
		},
		{
			name: "unknown op kind",
			json: `{"name":"g","nodes":[{"id":0,"op":99}]}`,
			want: "unknown op kind",
		},
		{
			name: "non-finite FLOPs literal",
			json: `{"name":"g","nodes":[{"id":0,"op":4,"flops":1e999}]}`,
			want: "out of range", // refused at parse, as encoding/json refused it
		},
		{
			name: "negative FLOPs",
			json: `{"name":"g","nodes":[{"id":0,"op":4,"flops":-1}]}`,
			want: "invalid FLOPs",
		},
		{
			name: "negative param bytes",
			json: `{"name":"g","nodes":[{"id":0,"op":4,"param_bytes":-1}]}`,
			want: "negative ParamBytes",
		},
		{
			name: "negative output bytes",
			json: `{"name":"g","nodes":[{"id":0,"op":4,"output_bytes":-1}]}`,
			want: "negative OutputBytes",
		},
		{
			name: "no nodes",
			json: `{"name":"g","nodes":[],"edges":[]}`,
			want: "no nodes",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			err := json.Unmarshal([]byte(tc.json), &g)
			if err == nil {
				t.Fatalf("decoded without error: %s", tc.json)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateRejectsNonFiniteFLOPs covers the non-finite path JSON cannot
// reach (encoding/json has no NaN/Inf literals): programmatically built
// graphs must still be rejected by Validate with a descriptive error.
func TestValidateRejectsNonFiniteFLOPs(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := New("bad")
		g.AddNode(Node{Op: OpMatMul, FLOPs: bad})
		err := g.Validate()
		if err == nil {
			t.Fatalf("FLOPs %v validated", bad)
		}
		if !strings.Contains(err.Error(), "invalid FLOPs") {
			t.Fatalf("error %q does not name the invalid FLOPs", err)
		}
	}
}

// TestValidateRejectsUnknownOpKind: the op-kind check used to live in
// UnmarshalJSON only, so a graph built through AddNode with a kind past the
// table validated and reached gnn.Features, which indexes a feature row by
// it. Validate names the node.
func TestValidateRejectsUnknownOpKind(t *testing.T) {
	g := New("bad")
	g.AddNode(Node{Name: "fine", Op: OpOutput})
	if err := g.Validate(); err != nil {
		t.Fatalf("the last known kind: %v", err)
	}
	g.AddNode(Node{Name: "mystery", Op: OpKind(NumOpKinds)})
	err := g.Validate()
	if err == nil {
		t.Fatalf("op kind %d validated", NumOpKinds)
	}
	for _, want := range []string{"node 1", `"mystery"`, "unknown op kind 16"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestUnmarshalAcceptsEveryKnownOpKind guards the op-kind boundary check
// against drifting out of sync with the op table.
func TestUnmarshalAcceptsEveryKnownOpKind(t *testing.T) {
	for k := 0; k < NumOpKinds; k++ {
		var g Graph
		payload := []byte(`{"name":"g","nodes":[{"id":0,"op":` + strconv.Itoa(k) + `}]}`)
		if err := json.Unmarshal(payload, &g); err != nil {
			t.Fatalf("op kind %d (%s) rejected: %v", k, OpKind(k), err)
		}
	}
}
