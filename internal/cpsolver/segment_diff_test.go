package cpsolver

import (
	"math"
	"math/rand"
	"testing"

	"mcmpart/internal/graph"
	"mcmpart/internal/partition"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/workload"
)

// segmenterPair drives a Segmenter and the reference sampler through the
// same calls on identically seeded generators and requires, after every
// call: the same partition or the same error, the boundary weights the
// Segmenter draws from equal bit for bit, inside the windows, to the ones
// the reference's prefix sums and forward table give, and the same next RNG
// output — i.e. the same number of draws was consumed.
//
// Before every call, every weight outside the windows, in both slots, is
// poisoned with -Inf; after it, the poison must be intact. So no build
// writes there, and every draw reads weights poisoned outside the windows:
// a -Inf consumes no rng.Float64 where the reference's finite weight
// consumes one, so a read outside a window desynchronises the streams.
type segmenterPair struct {
	t          *testing.T
	name       string
	sg         *Segmenter
	ref        *refSegmenter
	rng, rrng  *rand.Rand
	calls      int
	lastSample partition.Partition
}

// newSegmenterPair sizes both of sg's slots, which builds otherwise do on
// first use, so that the poison reaches a slot's first build too.
func newSegmenterPair(t *testing.T, name string, sg *Segmenter, seed int64) *segmenterPair {
	if sg.k > 1 {
		for range sg.slots {
			sg.slot()
			sg.cur ^= 1
		}
	}
	return &segmenterPair{
		t: t, name: name, sg: sg, ref: newRefSegmenter(sg),
		rng: rand.New(rand.NewSource(seed)), rrng: rand.New(rand.NewSource(seed)),
	}
}

func (sp *segmenterPair) sample(what string, probs [][]float64) {
	sp.t.Helper()
	sp.poison()
	got, gerr := sp.sg.Sample(probs, sp.rng)
	want, werr := sp.ref.refSample(probs, sp.rrng)
	sp.compare(what, got, gerr, want, werr)
}

// sampleExpecting is sample, also requiring that the call drew from weights
// an earlier call built (hit) or built its own: the scratch every build
// writes is poisoned first, and only a build overwrites it.
func (sp *segmenterPair) sampleExpecting(hit bool, what string, probs [][]float64) {
	sp.t.Helper()
	if sp.sg.k == 1 {
		sp.sample(what, probs)
		return
	}
	const poison = 0x7ff8_dead_beef_0001
	sp.sg.ps[0] = math.Float64frombits(poison)
	sp.sample(what, probs)
	if built := math.Float64bits(sp.sg.ps[0]) != poison; built == hit {
		sp.t.Fatalf("%s: call %d (%s): built weights %t, want %t", sp.name, sp.calls, what, built, !hit)
	}
}

func (sp *segmenterPair) fit(what string, y []int) {
	sp.t.Helper()
	sp.poison()
	got, gerr := sp.sg.Fit(y, sp.rng)
	want, werr := sp.ref.refFit(y, sp.rrng)
	sp.compare(what, got, gerr, want, werr)
}

// outside calls f on every weight outside the windows of both slots.
func (sp *segmenterPair) outside(f func(slot, j, g int, w *float64)) {
	m := len(sp.sg.order) - 1
	for i, s := range sp.sg.slots {
		if s.w == nil { // a single chip: no boundaries
			continue
		}
		for j := 0; j < sp.sg.k-1; j++ {
			for g := int(sp.sg.hi[j]) + 1; g < m; g++ {
				f(i, j, g, &s.w[j*m+g])
			}
		}
	}
}

func (sp *segmenterPair) poison() {
	sp.outside(func(_, _, _ int, w *float64) { *w = math.Inf(-1) })
}

func (sp *segmenterPair) compare(what string, got partition.Partition, gerr error, want partition.Partition, werr error) {
	sp.t.Helper()
	sp.calls++
	fail := func(format string, args ...any) {
		sp.t.Helper()
		sp.t.Fatalf("%s: call %d (%s): "+format, append([]any{sp.name, sp.calls, what}, args...)...)
	}
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		fail("error %v, reference %v", gerr, werr)
	}
	if len(got) != len(want) {
		fail("partition has %d entries, reference %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			fail("node %d on chip %d, reference %d", v, got[v], want[v])
		}
	}
	if gerr == nil {
		sp.lastSample = got
	}
	sp.outside(func(slot, j, g int, w *float64) {
		if !math.IsInf(*w, -1) {
			fail("slot %d weight[%d][%d] = %v, past the window's end %d: a build wrote outside it", slot, j, g, *w, sp.sg.hi[j])
		}
	})
	if c := sp.sg.k; c > 1 {
		if sp.ref.logPS == nil {
			fail("reference never built its tables")
		}
		// What backward reads (see weights): alpha[j][g'] - ps[j+1][g'] at
		// every gap of j's window, then the last boundary's row. The
		// reference computes the gaps past a window too; the Segmenter does
		// not, and the poison stands in for them.
		n := len(sp.sg.order)
		m := n - 1
		ps, alpha, w := sp.ref.logPS, sp.ref.alpha, sp.sg.slots[sp.sg.cur].w
		for j := 0; j < c-1; j++ {
			for g := 0; g <= int(sp.sg.hi[j]); g++ {
				var x float64
				if j < c-2 {
					x = alpha[j][g] - ps[j+1][g]
				} else {
					x = alpha[j][g] + ps[c-1][n-1] - ps[c-1][g]
				}
				if y := w[j*m+g]; math.Float64bits(x) != math.Float64bits(y) {
					fail("weight[%d][%d] = %x (%v), reference %x (%v)", j, g, math.Float64bits(y), y, math.Float64bits(x), x)
				}
			}
		}
	}
	if a, b := sp.rng.Int63(), sp.rrng.Int63(); a != b {
		fail("RNG streams diverged: next Int63 %d, reference %d", a, b)
	}
}

// dirichletRow overwrites row with a flat Dirichlet draw, as search.Anneal
// re-randomizes a proposal row.
func dirichletRow(rng *rand.Rand, row []float64) {
	var sum float64
	for j := range row {
		row[j] = -math.Log(1 - rng.Float64())
		sum += row[j]
	}
	for j := range row {
		row[j] /= sum
	}
}

func probMatrix(n, c int) ([][]float64, []float64) {
	rows, flat := make([][]float64, n), make([]float64, n*c)
	for i := range rows {
		rows[i] = flat[i*c : (i+1)*c]
	}
	return rows, flat
}

// exercise runs these call sequences against one segmenter: uniform,
// annealing-style proposals (a twentieth of the rows changed per call,
// accepted or reverted), the same matrix twice, a fresh matrix per call, a
// policy's start and refined states alternating, nil rows and hostile
// values, and hints of every kind in between, so that a memo entry or a
// slot's weights left over from one call are seen by the next.
// brief drops the one-hostile-value-at-a-time calls (the all-hostile matrix
// stays): the 10k-node graphs cost 50 ms a call under the race detector.
func (sp *segmenterPair) exercise(rounds int, brief bool) {
	sp.t.Helper()
	n, chips := len(sp.sg.order), sp.sg.chips
	src := rand.New(rand.NewSource(int64(n)*131 + int64(chips)))

	sp.sample("nil probs", nil)
	sp.sampleExpecting(true, "nil probs again", nil)
	sp.fit("hint over the uniform weights", randomHint(src, n, chips))
	sp.sampleExpecting(false, "nil probs after a hint", nil)
	sp.sampleExpecting(true, "nil probs after that", nil)

	current, flat := probMatrix(n, chips)
	for i := range flat {
		flat[i] = 1 / float64(chips)
	}
	sp.sample("uniform matrix", current)
	proposal, pflat := probMatrix(n, chips)
	perturb := n / 20
	if perturb < 1 {
		perturb = 1
	}
	for r := 0; r < rounds; r++ {
		copy(pflat, flat)
		for i := 0; i < perturb; i++ {
			dirichletRow(src, proposal[src.Intn(n)])
		}
		sp.sample("annealing proposal", proposal)
		if r%2 == 0 {
			copy(flat, pflat)
		}
		if r == rounds/2 {
			sp.fit("random hint between proposals", randomHint(src, n, chips))
			sp.sample("nil probs between proposals", nil)
		}
	}
	sp.sample("unchanged proposal", proposal)
	sp.sample("unchanged proposal again", proposal)

	for r := 0; r < 2; r++ {
		for _, row := range proposal {
			dirichletRow(src, row)
		}
		sp.sample("every row changed", proposal)
	}

	// A policy's SAMPLE-mode steps: the start state comes back every other
	// call, and a refined state shares no entry with it. Whatever writes a
	// slot's weights from something else — a hint, a uniform call, another
	// matrix, a copy with nil rows (stored as ones) — makes the next call
	// with its old matrix a miss.
	start, sflat := probMatrix(n, chips)
	refined, _ := probMatrix(n, chips)
	for i := range start {
		dirichletRow(src, start[i])
		dirichletRow(src, refined[i])
	}
	sp.sampleExpecting(false, "start state", start)
	sp.sampleExpecting(false, "refined state", refined)
	sp.sampleExpecting(true, "start state two calls back", start)
	sp.sampleExpecting(true, "refined state two calls back", refined)
	sp.sampleExpecting(true, "refined state twice", refined)
	at := src.Intn(n)*chips + src.Intn(sp.sg.k) // a chip the layouts use
	was := sflat[at]
	sflat[at] = math.Nextafter(was, 2)
	sp.sampleExpecting(false, "start state one ulp away", start)
	sflat[at] = was
	sp.sampleExpecting(false, "start state after its one-ulp neighbour", start)
	sp.sampleExpecting(true, "refined state after both", refined)
	sp.fit("hint over the refined state's weights", randomHint(src, n, chips))
	sp.sampleExpecting(false, "refined state after a hint", refined)
	sp.sampleExpecting(true, "start state after a hint", start)
	sp.sample("uniform over the start state's weights", nil)
	sp.sampleExpecting(false, "start state after a uniform call", start)
	startNil := make([][]float64, n)
	copy(startNil, start)
	for i := 1; i < n; i += 2 {
		startNil[i] = nil
	}
	sp.sampleExpecting(false, "start state with nil rows", startNil)
	sp.sampleExpecting(true, "start state with nil rows twice", startNil)
	sp.sampleExpecting(false, "start state after its nil-row copy", start)
	sp.sampleExpecting(true, "refined state after all of it", refined)

	withNil := make([][]float64, n)
	copy(withNil, proposal)
	for i := 0; i < n; i += 3 {
		withNil[i] = nil
	}
	sp.sample("nil rows", withNil)
	// One hostile value at a time in otherwise ordinary rows, then rows
	// made of nothing else, then the ordinary matrix again: an entry that
	// held a NaN, an Inf or a clamped value must not be remembered wrongly.
	for _, bad := range hostileProbs {
		if brief {
			break
		}
		saved := make(map[int]float64)
		for i := 0; i < 4; i++ {
			at := src.Intn(len(pflat))
			if _, dup := saved[at]; !dup {
				saved[at] = pflat[at]
			}
			pflat[at] = bad
		}
		sp.sample("hostile entries", proposal)
		sp.sample("hostile entries, unchanged", withNil)
		for at, v := range saved {
			pflat[at] = v
		}
	}
	sp.sample("hostile entries restored", proposal)
	saved := append([]float64(nil), pflat...)
	for i := range pflat {
		pflat[i] = hostileProbs[src.Intn(len(hostileProbs))]
	}
	sp.sample("nothing but hostile entries", proposal)
	copy(pflat, saved)
	sp.sample("ordinary matrix after hostile one", proposal)

	sp.sample("wrong row count", proposal[:n-1])

	for r := 0; r < rounds; r++ {
		sp.fit("random hint", randomHint(src, n, chips))
	}
	if sp.lastSample != nil {
		sp.fit("valid hint", sp.lastSample)
		jitter := append([]int(nil), sp.lastSample...)
		for i := 0; i < perturb; i++ {
			jitter[src.Intn(n)] = src.Intn(chips)
		}
		sp.fit("valid hint with a twentieth of it moved", jitter)
	}
	sp.fit("wrong hint length", make([]int, n+1))
	sp.sample("matrix after hints", proposal)
}

// hostileProbs are the probabilities a memo entry or a stored matrix could
// remember wrongly: zeros of both signs and values under the clamp, NaN,
// +Inf, and the one value whose term is exactly zero.
var hostileProbs = []float64{0, 1e-13, math.NaN(), math.Inf(1), 1, 1e-12, math.Copysign(0, -1), 5e-324, 1e300}

// randomHint draws a hint with entries below, inside and above 0..chips-1.
func randomHint(rng *rand.Rand, n, chips int) []int {
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(chips+4) - 2
	}
	return y
}

func TestSegmenterMatchesReference(t *testing.T) {
	type instance struct {
		name   string
		g      *graph.Graph
		chips  int
		rounds int
		brief  bool
	}
	instances := []instance{
		{"bert/36", workload.BERT(), 36, 12, false},
		{"chain-5/8 (k < chips)", chain(t, 5), 8, 6, false},
		{"skipconn/3 (k < chips)", skipConn(t), 3, 6, false},
		{"chain-2/2", chain(t, 2), 2, 6, false},
		{"chain-7/1 (single chip)", chain(t, 7), 1, 6, false},
		{"chain-400/8", chain(t, 400), 8, 6, false},
	}
	for _, fam := range randgraph.Families() {
		for _, nodes := range []int{1000, 10_000} {
			if nodes > 1000 && testing.Short() {
				continue
			}
			g := randgraph.Generate(randgraph.Config{Family: fam, Nodes: nodes, Seed: 18})
			instances = append(instances, instance{g.Name(), g, 36, 4, nodes > 1000})
		}
	}
	for _, in := range instances {
		sg, err := NewSegmenter(in.g, in.chips)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		newSegmenterPair(t, in.name, sg, 7).exercise(in.rounds, in.brief)
	}

	// The first matrix a segmenter ever sees is all zeros: an empty memo
	// must not pass for one that has seen zeros.
	fresh, err := NewSegmenter(chain(t, 400), 8)
	if err != nil {
		t.Fatal(err)
	}
	zeros, _ := probMatrix(400, 8)
	first := newSegmenterPair(t, "chain-400/8 zeros first", fresh, 9)
	first.sample("all zeros", zeros)
	first.sample("all zeros again", zeros)

	// A heterogeneous package: the capacity bound rejects and redraws, so a
	// call consumes several backward passes over one forward table. The
	// bound is the median chip load of uniform samples, which most draws
	// exceed somewhere, plus a bound nothing satisfies.
	g := workload.BERT()
	const chips = 8
	probe, err := NewSegmenter(g, chips)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for v := 0; v < g.NumNodes(); v++ {
		total += g.Node(v).ParamBytes
	}
	caps := make([]int64, chips)
	for c := range caps {
		caps[c] = total / chips * 3 / 2
	}
	probe.chipCap = caps
	pair := newSegmenterPair(t, "bert/8 capacity-bounded", probe, 11)
	pair.exercise(6, false)
	impossible, err := NewSegmenter(g, chips)
	if err != nil {
		t.Fatal(err)
	}
	impossible.chipCap = make([]int64, chips)
	pair = newSegmenterPair(t, "bert/8 impossible capacity", impossible, 12)
	pair.sample("nil probs", nil)
	pair.fit("hint", make([]int, g.NumNodes()))
}

// FuzzSegmenterSequence is the differential on whole call sequences: the
// shape byte picks the graph and chip count, and each op byte one call — a
// new matrix, the call of one or two calls back again, the last matrix with
// one entry moved by an ulp, with nil rows or with a hostile value, a hint,
// or uniform. Every call must agree with the reference: partition or error,
// boundary weights, next rng.Int63().
func FuzzSegmenterSequence(f *testing.F) {
	f.Add(int64(1), uint8(0x83), []byte{0, 0, 2, 2, 1, 3, 2, 6, 2, 4, 1, 2, 7, 2, 5, 5, 1})
	f.Add(int64(2), uint8(0x90), []byte{0, 6, 1, 0, 2, 7, 2, 4, 4, 0, 3, 3, 2})
	f.Add(int64(3), uint8(0x41), []byte{7, 0, 1, 5, 13, 21, 29, 37, 2, 6, 6, 1})
	f.Add(int64(4), uint8(0xf3), []byte{0, 0, 2, 2, 2, 2, 8, 10, 4, 12, 1, 9})
	f.Add(int64(5), uint8(0x83), []byte{0, 7, 2, 0, 6, 2, 0, 0, 2, 2})
	f.Add(int64(6), uint8(0x90), []byte{7, 7, 6, 7, 0, 7, 2, 7})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		chips := 1 + int(shape>>4)
		var g *graph.Graph
		switch shape % 3 {
		case 0:
			g = chain(t, 2+int(shape>>2)%23)
		case 1:
			g = skipConn(t)
		default:
			fams := randgraph.Families()
			g = randgraph.Generate(randgraph.Config{Family: fams[int(shape>>2)%len(fams)], Nodes: 150, Seed: seed & 0xff})
		}
		sg, err := NewSegmenter(g, chips)
		if err != nil {
			t.Fatal(err)
		}
		sp := newSegmenterPair(t, "fuzz", sg, seed)
		src := rand.New(rand.NewSource(seed ^ 0x5e9))
		n := g.NumNodes()
		// A call is Fit(hint) when hint is non-nil and Sample(probs)
		// otherwise; calls[len-1] is the last one made.
		type call struct {
			probs [][]float64
			hint  []int
		}
		var calls []call
		var last [][]float64 // the last matrix passed
		fresh := func() [][]float64 {
			probs, _ := probMatrix(n, chips)
			for _, row := range probs {
				dirichletRow(src, row)
			}
			return probs
		}
		// variant copies last (or a new matrix, before the first), each
		// row its own slice, so that a later edit leaves it alone.
		variant := func() [][]float64 {
			if last == nil {
				last = fresh()
			}
			probs := make([][]float64, n)
			for i, row := range last {
				probs[i] = append([]float64(nil), row...)
			}
			return probs
		}
		for _, op := range ops {
			var next call
			switch op % 8 {
			case 0:
				next.probs = fresh()
			case 1, 2:
				if back := int(op % 8); back <= len(calls) {
					next = calls[len(calls)-back]
				} else {
					next.probs = fresh()
				}
			case 3:
				next.probs = variant()
				row := next.probs[src.Intn(n)]
				if row != nil {
					at := src.Intn(len(row))
					row[at] = math.Nextafter(row[at], 2)
				}
			case 4:
				next.probs = variant()
				for i := int(op>>3) % 3; i < n; i += 1 + int(op>>5) {
					next.probs[i] = nil
				}
			case 5:
				next.probs = variant()
				if row := next.probs[src.Intn(n)]; row != nil {
					row[src.Intn(len(row))] = hostileProbs[int(op>>3)%len(hostileProbs)]
				}
			case 6:
				next.hint = randomHint(src, n, chips)
			case 7:
				// Sample(nil): uniform.
			}
			if next.hint != nil {
				sp.fit("hint", next.hint)
			} else {
				sp.sample("matrix", next.probs)
				if next.probs != nil {
					last = next.probs
				}
			}
			calls = append(calls, next)
		}
	})
}

// FuzzSampleLogWeights is the same differential on the boundary draw alone:
// raw weight slices — runs of -Inf, ties, NaN, +Inf, magnitudes up to 1e308
// — must pick the reference's index and leave the generator where the
// reference leaves it.
func FuzzSampleLogWeights(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0})
	f.Add(int64(2), []byte{1, 1, 2, 3, 1, 1, 9, 9})
	f.Add(int64(3), []byte{4, 5, 6, 7, 8, 1, 1, 1, 1, 1})
	f.Add(int64(4), []byte{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		checkSampleLogWeights(t, seed, weightsFromBytes(seed, shape))
	})
}

// weightsFromBytes turns fuzz input into a weight slice: each byte picks
// one entry's kind, so the fuzzer steers the structure and the seed fills
// in the magnitudes.
func weightsFromBytes(seed int64, shape []byte) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := make([]float64, 0, len(shape))
	for _, b := range shape {
		var x float64
		switch b % 12 {
		case 0:
			x = math.Inf(-1)
		case 1:
			x = 0
		case 2:
			x = -1e308
		case 3:
			x = 1e308
		case 4:
			x = math.NaN()
		case 5:
			x = math.Inf(1)
		case 6:
			x = -7000 + 40*rng.Float64() // the magnitude of a BERT boundary weight
		case 7:
			x = -7000
		case 8:
			x = rng.NormFloat64()
		case 9:
			x = 1e-300 * rng.Float64()
		case 10:
			x = float64(b) * 1e15
		default:
			x = -40 * rng.Float64()
		}
		// A byte's high bits repeat the entry: runs and ties.
		for r := 0; r <= int(b>>6); r++ {
			w = append(w, x)
		}
	}
	return w
}

func checkSampleLogWeights(t *testing.T, seed int64, w []float64) {
	t.Helper()
	rng, rrng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	// Several draws from one generator: the best-so-far threshold and the
	// bucket every draw falls in differ each time.
	for round := 0; round < 4; round++ {
		got, gerr := sampleLogWeights(rng, w)
		want, werr := refSampleLogWeights(rrng, w)
		if got != want || gerr != werr {
			t.Fatalf("round %d: index %d (%v), reference %d (%v) on %v", round, got, gerr, want, werr, w)
		}
		if a, b := rng.Int63(), rrng.Int63(); a != b {
			t.Fatalf("round %d: RNG streams diverged on %v", round, w)
		}
	}
}

// TestSampleLogWeightsMatchesReference runs the fuzz body over long random
// slices, where nearly every draw is one the bound lets the loop skip.
func TestSampleLogWeightsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		shape := make([]byte, 1+rng.Intn(3000))
		rng.Read(shape)
		if i%3 == 0 { // one kind only: every weight equal, or near it
			for j := range shape {
				shape[j] = shape[0]
			}
		}
		checkSampleLogWeights(t, int64(i), weightsFromBytes(int64(i), shape))
	}
}

// TestGumbelBoundHolds checks the table against the noise the loop would
// compute, on the generator's own grid near every bucket edge — where the
// bound is tightest — and on random draws: the bound must hold with most of
// its margin to spare.
func TestGumbelBoundHolds(t *testing.T) {
	check := func(u float64) {
		if u < 0 || u >= 1 {
			return
		}
		noise := -math.Log(-math.Log(u))
		if ub := gumbelUB[int(u*gumbelBuckets)]; !(noise <= ub-gumbelMargin/2) {
			t.Fatalf("u = %v: noise %v exceeds the bucket bound %v less half its margin", u, noise, ub)
		}
	}
	const grid = 1.0 / (1 << 53)
	for b := 0; b <= gumbelBuckets; b++ {
		edge := float64(b) / gumbelBuckets
		for i := -3; i <= 3; i++ {
			check(edge + float64(i)*grid)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Float64())
	}
}

func segmenterBenchProposals(b *testing.B) (*Segmenter, [][][]float64) {
	g := workload.BERT()
	sg, err := NewSegmenter(g, 36)
	if err != nil {
		b.Fatal(err)
	}
	// Sixteen annealing proposals, each a twentieth of the rows away from
	// the one before.
	n, c := g.NumNodes(), 36
	rng := rand.New(rand.NewSource(1))
	proposals := make([][][]float64, 16)
	var prev []float64
	for i := range proposals {
		rows, flat := probMatrix(n, c)
		if prev == nil {
			for j := range flat {
				flat[j] = 1 / float64(c)
			}
		} else {
			copy(flat, prev)
		}
		for j := 0; j < n/20; j++ {
			dirichletRow(rng, rows[rng.Intn(n)])
		}
		proposals[i], prev = rows, flat
	}
	return sg, proposals
}

// BenchmarkSegmenterSample is the solver's share of a bert-search-sim
// sample: SAMPLE mode on BERT/36 under annealing-style proposals.
func BenchmarkSegmenterSample(b *testing.B) {
	sg, proposals := segmenterBenchProposals(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sg.Sample(proposals[i%len(proposals)], rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

// BenchmarkSegmenterSampleAnneal is SAMPLE mode on BERT/36 the way
// search.Anneal drives it: each call re-draws a twentieth of the rows of the
// matrix the last call saw, so every build goes through the term memo.
func BenchmarkSegmenterSampleAnneal(b *testing.B) {
	sg, _ := segmenterBenchProposals(b)
	n, c := sg.NumNodes(), 36
	rng := rand.New(rand.NewSource(1))
	probs, flat := probMatrix(n, c)
	for i := range flat {
		flat[i] = 1 / float64(c)
	}
	// The re-drawn rows come from a pool, so that the loop times the
	// sampler and not the Dirichlet draws.
	pool, _ := probMatrix(64, c)
	for _, row := range pool {
		dirichletRow(rng, row)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n/20; j++ {
			copy(probs[rng.Intn(n)], pool[rng.Intn(len(pool))])
		}
		p, err := sg.Sample(probs, rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

// BenchmarkSegmenterSampleUniform is the solver's share of a random-search
// sample: Sample(nil) on BERT/36, which draws from the uniform weights the
// first call built.
func BenchmarkSegmenterSampleUniform(b *testing.B) {
	sg, _ := segmenterBenchProposals(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sg.Sample(nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

// BenchmarkSegmenterFit is the solver's share of a bert-rl sample: FIX mode
// on BERT/36 from raw per-node action draws.
func BenchmarkSegmenterFit(b *testing.B) {
	sg, _ := segmenterBenchProposals(b)
	rng := rand.New(rand.NewSource(1))
	hints := make([][]int, 16)
	for i := range hints {
		hints[i] = make([]int, sg.NumNodes())
		for j := range hints[i] {
			hints[i][j] = rng.Intn(36)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sg.Fit(hints[i%len(hints)], rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}
