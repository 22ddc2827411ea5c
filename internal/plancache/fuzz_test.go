package plancache

import (
	"bytes"
	"os"
	"testing"
)

// FuzzCacheEntry is the disk-trust-boundary fuzz target: arbitrary bytes
// dropped where an entry file should be must either decode to exactly the
// entry a well-formed encoding declares, or be quarantined as a miss —
// never served as a plan. It drives the real Store read path, not just
// Decode, so quarantine behavior is under fuzz too.
func FuzzCacheEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode("", nil))
	f.Add(Encode("g=abc|p=def|m=random|s=7", []byte(`{"partition": [0, 1, 2], "throughput": 123.5}`)))
	if valid := Encode("key", []byte("payload")); len(valid) > 0 {
		trunc := valid[:len(valid)-1]
		f.Add(trunc)
		flipped := bytes.Clone(valid)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte("MCMPLANC garbage after a real magic"))

	const key = "fuzz-key"
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must be total: no panics, and a success must re-encode to
		// the identical bytes (the format has no redundancy to lose).
		decKey, payload, err := Decode(data)
		if err == nil {
			if !bytes.Equal(Encode(decKey, payload), data) {
				t.Fatalf("decode/encode not an identity for %d accepted bytes", len(data))
			}
		}

		// The store must serve data only when it is the exact well-formed
		// entry for the looked-up key.
		st, oerr := Open(t.TempDir(), nil)
		if oerr != nil {
			t.Fatal(oerr)
		}
		if werr := os.WriteFile(st.path(key), data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		got, ok := st.Get(key)
		switch {
		case ok && (err != nil || decKey != key):
			t.Fatalf("store served unverifiable bytes: %q", got)
		case ok && !bytes.Equal(got, payload):
			t.Fatalf("store served %q, entry holds %q", got, payload)
		case !ok && st.quarantined.Value() == 0 && err != nil:
			t.Fatal("rejected entry was not quarantined")
		}
	})
}
