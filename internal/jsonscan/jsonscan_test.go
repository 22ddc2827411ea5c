package jsonscan

import (
	"encoding/json"
	"strings"
	"testing"
)

// syntaxSeeds are documents on both sides of RFC 8259. The typed readers and
// the member rules are pinned where they are used, against the encoding/json
// decode they replaced (internal/graph's TestDecodeMatchesReference, the
// root package's FuzzDecodePlanRequest); here the scanner's own syntax check
// is held to encoding/json's.
var syntaxSeeds = []string{
	`{"a":[1,-2.5e+3,true,false,null,"s\né😀",{}],"b":{"c":[]}}`,
	" \t\r\n[ 1 , { \"a\" : null } ] \n",
	`0`, `-0`, `-0.0e-0`, `1E9`, `"x"`, `null`, `true`,
	``, ` `, `[`, `]`, `{`, `[1,]`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{1:2}`, `[1 2]`, `{"a":1 "b":2}`,
	`01`, `1.`, `.5`, `-`, `+1`, `1e`, `1e+`, `0x1`, `1a`, `Infinity`, `nul`, `tru`, `falsey`, `nullx`,
	`"\x"`, `"\u12g4"`, `"\u123"`, "\"a\nb\"", `"abc`, `"a\`, "\"\xff\"", "\"\x7f\"",
	`[[]]]`, `[{]}`, `{"a":[}`, `[] []`, `{}x`, "[]\x00", "\f[]", "\xef\xbb\xbf[]",
	strings.Repeat("[", 300) + strings.Repeat("]", 300),
	strings.Repeat(`{"a":`, 300) + "1" + strings.Repeat("}", 300),
}

func checkSkipMatchesValid(t testing.TB, data []byte) {
	t.Helper()
	s := New(data)
	err := s.Skip()
	if err == nil {
		err = s.End()
	}
	if valid := json.Valid(data); (err == nil) != valid {
		t.Fatalf("Skip then End: %v; json.Valid: %t\ndocument: %.200q", err, valid, data)
	}
}

// FuzzSkip: for arbitrary bytes, Skip followed by End succeeds exactly when
// encoding/json calls the bytes one valid value.
func FuzzSkip(f *testing.F) {
	for _, doc := range syntaxSeeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSkipMatchesValid(t, data) })
}

// TestSkipDepth: nesting is bounded where encoding/json bounds it, counting
// the containers the caller Opened, and never on the Go stack.
func TestSkipDepth(t *testing.T) {
	nested := func(depth int) []byte {
		return []byte(strings.Repeat("[", depth) + strings.Repeat("]", depth))
	}
	checkSkipMatchesValid(t, nested(MaxDepth))
	checkSkipMatchesValid(t, nested(MaxDepth+1))
	checkSkipMatchesValid(t, []byte(strings.Repeat("[", 1_000_000)))
	if !json.Valid(nested(MaxDepth)) || json.Valid(nested(MaxDepth+1)) {
		t.Fatalf("encoding/json's limit is not %d", MaxDepth)
	}
	s := New(append([]byte(`{"a":`), nested(MaxDepth)...))
	if err := s.Open('{', "an object"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Member(true); err != nil {
		t.Fatal(err)
	}
	if err := s.Skip(); err == nil || !strings.Contains(err.Error(), "max depth") {
		t.Fatalf("%d levels inside an Opened object: error %v, want the depth named", MaxDepth, err)
	}
}

func TestRawDelimitsTheValue(t *testing.T) {
	s := New([]byte(` { "a" :  {"b":[1,2,{"c":"}"}]}  , "d" : 7 } `))
	if err := s.Open('{', "an object"); err != nil {
		t.Fatal(err)
	}
	for first, want := true, []string{`{"b":[1,2,{"c":"}"}]}`, `7`}; ; first = false {
		key, ok, err := s.Member(first)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		raw, err := s.Raw()
		if err != nil || string(raw) != want[0] {
			t.Fatalf("member %q: raw %q, %v; want %q", key, raw, err, want[0])
		}
		want = want[1:]
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
}

// TestFieldFoldsLikeEncodingJSON: exact bytes first, else Unicode simple
// folding, under which the Kelvin sign is a k and the long s an s.
func TestFieldFoldsLikeEncodingJSON(t *testing.T) {
	names := []string{"id", "Name", "bytes", "kind"}
	for key, want := range map[string]int{
		"id": 0, "ID": 0, "iD": 0, "Name": 1, "name": 1, "NAME": 1,
		"byteſ": 2, "BYTES": 2, "Kind": 3,
		"": -1, "i d": -1, "ids": -1, "nam": -1, "bytes ": -1, "\xffid": -1,
	} {
		if got := Field([]byte(key), names); got != want {
			t.Errorf("Field(%q) = %d, want %d", key, got, want)
		}
		// encoding/json agrees: the member is seen exactly when Field finds it.
		var v struct {
			ID    int `json:"id"`
			Name  int
			Bytes int `json:"bytes"`
			Kind  int `json:"kind"`
		}
		doc, _ := json.Marshal(map[string]int{key: 1})
		if err := json.Unmarshal(doc, &v); err != nil {
			t.Fatal(err)
		}
		if seen := v.ID+v.Name+v.Bytes+v.Kind == 1; seen != (want >= 0) {
			t.Errorf("encoding/json saw member %q: %t, Field says %d", key, seen, want)
		}
	}
}

// TestMemberOfIsMemberAndField walks objects with MemberOf under every
// hint, and with Member and Field, skipping each value: both walks must
// report the same fields, names, errors and offsets — whether the expected
// name is there verbatim, folded, escaped, spaced, cut short or absent.
func TestMemberOfIsMemberAndField(t *testing.T) {
	names := []string{"id", "name", "op"}
	for _, doc := range []string{
		`{"id":1,"name":"a","op":2}`, `{"op":2,"id":1}`, `{"ID":1,"Name":"a"}`, `{"i\u0064":1,"op":2}`,
		`{ "id" :1 , "name":"a"}`, `{"id":1,"idx":2,"nam":3,"name":4}`, `{}`, `{"id"`, `{"id":`, `{"id"1}`,
		`{"id":1 "op":2}`, `{"id":1,}`, `{"id":1,"name"`, `{"i`, `{"id":1,"op"`,
	} {
		for hint := -1; hint <= len(names); hint++ {
			want, got := New([]byte(doc)), New([]byte(doc))
			if want.Open('{', "an object") != nil || got.Open('{', "an object") != nil {
				t.Fatalf("%s: no object", doc)
			}
			for first, next := true, hint; ; first = false {
				key, ok, err := want.Member(first)
				field := -1
				if ok {
					field = Field(key, names)
				}
				gotField, gotKey, gotOK, gotErr := got.MemberOf(first, names, next)
				if gotField != field || string(gotKey) != string(key) || gotOK != ok || (gotErr == nil) != (err == nil) || got.Offset() != want.Offset() {
					t.Fatalf("%s, hint %d: MemberOf = %d %q %t %v at %d; Member and Field = %d %q %t %v at %d",
						doc, next, gotField, gotKey, gotOK, gotErr, got.Offset(), field, key, ok, err, want.Offset())
				}
				if !ok || err != nil || want.Skip() != nil || got.Skip() != nil {
					break
				}
				next = field + 1
			}
		}
	}
}

// TestIntegerMembersTakeIntegerLiterals: an integer member is an optional
// minus sign and digits with no leading zero, in range — what
// strconv.ParseInt made of the token for encoding/json — and the error for
// anything else says what was wrong with it.
func TestIntegerMembersTakeIntegerLiterals(t *testing.T) {
	for _, tc := range []struct {
		tok   string
		want  int64
		set   bool
		error string // substring; "" for none
	}{
		{"0", 0, true, ""}, {"-0", 0, true, ""}, {"7", 7, true, ""}, {"-12", -12, true, ""},
		{"9223372036854775807", 9223372036854775807, true, ""},
		{"-9223372036854775808", -9223372036854775808, true, ""},
		{"null", 0, false, ""}, {" \n42", 42, true, ""},
		{"9223372036854775808", 0, false, "out of range"},
		{"-9223372036854775809", 0, false, "out of range"},
		{"18446744073709551616", 0, false, "out of range"},
		{"99999999999999999999999999", 0, false, "out of range"},
		{"1.0", 0, false, "not a fraction or an exponent"},
		{"1e3", 0, false, "not a fraction or an exponent"},
		{"2E0", 0, false, "not a fraction or an exponent"},
		{"00", 0, false, "leading zero"}, {"-01", 0, false, "leading zero"},
		{`"3"`, 0, false, "expected an integer"}, {"true", 0, false, "expected an integer"},
		{"-", 0, false, "expected an integer"}, {"+1", 0, false, "expected an integer"},
		{"{}", 0, false, "expected an integer"}, {"", 0, false, "end of input"},
		{"nul", 0, false, "invalid literal"},
	} {
		const unset = -77 // what a null, or an error, must leave in place
		got := int64(unset)
		err := New([]byte(tc.tok)).Int64(&got)
		if want := map[bool]int64{true: tc.want, false: unset}[tc.set]; got != want ||
			(err == nil) != (tc.error == "") || err != nil && !strings.Contains(err.Error(), tc.error) {
			t.Errorf("Int64 of %q left %d, %v; want %d, error %q", tc.tok, got, err, want, tc.error)
		}
	}
	for tok, ok := range map[string]bool{"0": true, "255": true, "256": false, "-0": false, "-1": false, "1.0": false} {
		var v uint8
		if err := New([]byte(tok)).Uint8(&v); (err == nil) != ok {
			t.Errorf("Uint8 of %q: %v, want accepted: %t", tok, err, ok)
		}
	}
}
