package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"time"
)

// The reference kernel is the benchmark's yardstick for host speed: a fixed
// amount of standard-library work whose duration changes only when the host
// does. It runs only while no op is in flight, and every wall-clock
// end-to-end metric is scaled by calibRefMs over the kernel's median in the
// pauses around the ops it corrects.
//
// It has two halves because the ops do. The first is compute in cache:
// xorshift-fill, sort and hash a preallocated buffer. The second decodes a
// fixed JSON document into fresh values, so it allocates, chases pointers
// and keeps the collector busy on the other core — which every op of every
// workload also does. The first half alone under-corrects: when it slowed by
// x the ops slowed by x^1.4..1.7; with both halves the exponent is 0.96..1.1
// (README.md, "Drift correction").
const (
	calibWords     = 400_000 // uint64s filled and sorted per call
	calibHashBytes = 800_000 // prefix of the sorted buffer that is hashed
	calibDocItems  = 1200    // records in the JSON document (about 120 kB)
	calibDecodes   = 18      // decodes of the document per call
)

type calibrator struct {
	words []uint64
	bytes []byte
	doc   []byte
	state uint64
	sink  int
}

func newCalibrator() *calibrator {
	type record struct {
		ID    int             `json:"id"`
		Name  string          `json:"name"`
		Vals  []float64       `json:"vals"`
		Flags map[string]bool `json:"flags"`
	}
	records := make([]record, calibDocItems)
	for i := range records {
		records[i] = record{
			ID: i, Name: fmt.Sprintf("node-%06d", i),
			Vals:  []float64{float64(i) * 1.5, 2.25, 1e9 + float64(i)},
			Flags: map[string]bool{"a": i%2 == 0, "b": true},
		}
	}
	doc, err := json.Marshal(records)
	if err != nil {
		panic(err) // a fixed document of plain values always marshals
	}
	c := &calibrator{
		words: make([]uint64, calibWords),
		bytes: make([]byte, calibHashBytes),
		doc:   doc,
		state: 0x9E3779B97F4A7C15,
	}
	c.run() // page the buffers in; not a sample
	return c
}

// run executes the kernel once and returns its duration.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	x := c.state
	for i := range c.words {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.words[i] = x
	}
	c.state = x
	slices.Sort(c.words)
	for i := 0; i < calibHashBytes/8; i++ {
		binary.LittleEndian.PutUint64(c.bytes[8*i:], c.words[i])
	}
	sum := sha256.Sum256(c.bytes)
	c.sink ^= int(sum[0])
	for i := 0; i < calibDecodes; i++ {
		var v []any
		if err := json.Unmarshal(c.doc, &v); err != nil {
			panic(err) // the document was marshalled by newCalibrator
		}
		c.sink ^= len(v)
	}
	return time.Since(start)
}

// sample runs the kernel n times, appending each duration in milliseconds.
func (c *calibrator) sample(n int, into *[]float64, tr *tracer) {
	for i := 0; i < n; i++ {
		s := tr.begin("host.calib", 0)
		d := c.run()
		tr.end(s)
		*into = append(*into, ms(d))
	}
}
