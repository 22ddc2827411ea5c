package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"time"

	"mcmpart"
	"mcmpart/internal/graph"
	"mcmpart/internal/randgraph"
	"mcmpart/internal/telemetry"
)

// stack is the mcmpartd serving stack in-process: a Service behind
// NewHTTPHandler on a loopback listener, and a keep-alive client.
type stack struct {
	svc    *mcmpart.Service
	server *http.Server
	client *http.Client
	url    string
	served chan struct{}
	// sent folds the request bodies of verified ops (see instance.bodyHash).
	sent hash.Hash
}

func newStack(pkg *mcmpart.Package) (*stack, error) {
	svc, err := mcmpart.NewService(pkg, mcmpart.ServiceOptions{Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	st := &stack{
		svc:    svc,
		server: &http.Server{Handler: mcmpart.NewHTTPHandler(svc)},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		sent:   sha256.New(),
	}
	//mcmlint:ignore goleak Serve returns when close calls server.Close, and close waits on served
	go func() {
		defer close(st.served)
		_ = st.server.Serve(ln) // returns ErrServerClosed from close
	}()
	return st, nil
}

// close stops the server and the service and waits for the accept loop.
func (st *stack) close() {
	_ = st.server.Close()
	<-st.served
	st.client.CloseIdleConnections()
	_ = st.svc.Close()
}

// post sends one plan request and reads the whole response. With an
// opTrace it splits the round trip into write, server wait and read spans.
func (st *stack) post(ctx context.Context, body []byte, ot *opTrace) opOutcome {
	var start, wrote, firstByte time.Time
	if ot != nil {
		start = time.Now()
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		return opOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return opOutcome{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if ot != nil && !wrote.IsZero() && !firstByte.IsZero() {
		ot.tr.add("httpapi.write_request", ot.root, ot.op, start, wrote)
		ot.tr.add("service.server_wait", ot.root, ot.op, wrote, firstByte)
		ot.tr.add("httpapi.read_response", ot.root, ot.op, firstByte, time.Now())
	}
	return opOutcome{status: resp.StatusCode, body: data, err: err}
}

func (st *stack) bodyHash() string { return hex.EncodeToString(st.sent.Sum(nil)) }

// decodePlan checks the envelope of a plan response and fills o.res.
func decodePlan(i int, o *opOutcome, wantCached bool) error {
	if o.err != nil {
		return fmt.Errorf("op %d: %w", i, o.err)
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("op %d: status %d: %.200s", i, o.status, o.body)
	}
	var pr mcmpart.PlanResponse
	if err := json.Unmarshal(o.body, &pr); err != nil {
		return fmt.Errorf("op %d: decoding response: %w", i, err)
	}
	o.body = nil
	o.res = pr.Result.Result()
	switch {
	case o.res == nil:
		return fmt.Errorf("op %d: response carries no result", i)
	case pr.Error != "":
		return fmt.Errorf("op %d: partial result: %s", i, pr.Error)
	case pr.Cached != wantCached || pr.Coalesced:
		return fmt.Errorf("op %d: cached=%t coalesced=%t, want cached=%t", i, pr.Cached, pr.Coalesced, wantCached)
	}
	return nil
}

// planBody is the wire form of one request.
func planBody(g *mcmpart.Graph, opts mcmpart.PlanOptionsWire) []byte {
	data, err := json.Marshal(mcmpart.PlanRequestWire{Graph: g, Options: opts})
	if err != nil {
		panic(err) // graphs and options always marshal
	}
	return data
}

// renamed returns g with the same nodes and edges in the same order under
// fresh names of the same lengths: different bytes on the wire, the same
// structure and therefore the same fingerprint and body size.
func renamed(g *mcmpart.Graph, seed int64, idx int) *mcmpart.Graph {
	tag := derive(seed, streamRename, idx)
	name := func(old string, i int) string {
		fresh := fmt.Sprintf("%016x%08x", tag, i)
		for len(fresh) < len(old) {
			fresh += fresh
		}
		return fresh[len(fresh)-len(old):]
	}
	out := graph.New(name(g.Name(), -1))
	for _, n := range g.Nodes() {
		n.Name = name(n.Name, n.ID)
		out.AddNode(n)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(e.From, e.To, e.Bytes)
	}
	return out
}

// bigGraphSeeds name the four layered graphs of serve-warm. They are frozen
// with the workload: alloc_mb_per_op and quality are gated at 1-2 % and
// differ by more than that from one generated graph to the next, so -seed
// varies the names, the order and which op is renamed, not the structure.
var bigGraphSeeds = [4]int64{1, 2, 3, 4}

func bigGraph(i, nodes int) *mcmpart.Graph {
	return randgraph.Generate(randgraph.Config{Family: randgraph.FamilyLayered, Nodes: nodes, Seed: bigGraphSeeds[i]})
}

// setupServeWarm: four layered graphs planned once (analytic) so that every
// measured op is a hit. Ops come in blocks of 16 in which each graph is sent
// three times byte-identically and once renamed.
func setupServeWarm(ctx context.Context, seed int64, sz sizing) (*instance, error) {
	pkg := mcmpart.Edge36()
	st, err := newStack(pkg)
	if err != nil {
		return nil, err
	}
	opts := mcmpart.PlanOptionsWire{Method: mcmpart.MethodAnalytic}
	var graphs [4]*mcmpart.Graph
	var bodies [4][]byte
	var filled [4]*mcmpart.Result
	for gi := range graphs {
		graphs[gi] = bigGraph(gi, sz.bigNodes)
		bodies[gi] = planBody(graphs[gi], opts)
		o := st.post(ctx, bodies[gi], nil)
		if err := decodePlan(-1, &o, false); err != nil {
			st.close()
			return nil, fmt.Errorf("cache fill %d: %w", gi, err)
		}
		filled[gi] = o.res
	}
	rot := int(derive(seed, streamRotation, 0) % 4)
	// Op i of a 16-block: graph (i + i/4 + rot) mod 4, renamed when i mod 4
	// is 3 — so over a block each graph is renamed exactly once.
	graphOf := func(i int) int { i = abs(i); return (i + i/4 + rot) % 4 }
	isRenamed := func(i int) bool { return abs(i)%4 == 3 }

	fresh := map[int][]byte{}
	in := &instance{svc: st.svc, warmOps: 8, close: st.close, bodyHash: st.bodyHash}
	in.prepare = func(lo, hi int) {
		clear(fresh)
		//mcmlint:ignore ctxloop building a segment's request bodies is bounded client-side work, no samples
		for i := lo; i < hi; i++ {
			if isRenamed(i) {
				fresh[i] = planBody(renamed(graphs[graphOf(i)], seed, abs(i)), opts)
			}
		}
	}
	bodyOf := func(i int) []byte {
		if isRenamed(i) {
			return fresh[i]
		}
		return bodies[graphOf(i)]
	}
	in.run = func(ctx context.Context, i int, ot *opTrace) opOutcome {
		o := st.post(ctx, bodyOf(i), ot)
		o.renamed = isRenamed(i)
		return o
	}
	in.verify = func(i int, o *opOutcome) error {
		st.sent.Write(bodyOf(i))
		if err := decodePlan(i, o, true); err != nil {
			return err
		}
		gi := graphOf(i)
		if err := o.res.Partition.ValidateOn(graphs[gi], pkg); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if !sameResult(o.res, filled[gi]) {
			return fmt.Errorf("op %d: hit differs from the plan made in set-up", i)
		}
		return nil
	}
	in.recheck = func(ctx context.Context, _ []opOutcome) []error {
		var errs []error
		for gi, g := range graphs {
			res, err := st.svc.Planner().Plan(ctx, g, opts.Options())
			if err != nil || !sameResult(res, filled[gi]) {
				errs = append(errs, fmt.Errorf("graph %d: direct re-plan differs from the served plan (err %v)", gi, err))
			}
		}
		return errs
	}
	return in, nil
}

// Pre-training of serve-zeroshot's policy: small, but the full pipeline
// (training worker, checkpoints, validation worker).
var zeroShotPretrain = mcmpart.PretrainOptions{TotalSamples: 400, Checkpoints: 5, ValidationGraphs: 2, Seed: 1}

const (
	zeroShotBudget   = 16
	zeroShotSeedBase = 1000 // measured op plan seeds are base + a permutation of 0..ops-1
)

// setupServeZeroShot: BERT planned zero-shot over HTTP, a distinct plan seed
// per op so every op is a miss. -seed permutes the order of the plan seeds;
// the set is fixed, so quality is the same number on every run.
func setupServeZeroShot(ctx context.Context, seed int64, sz sizing) (*instance, error) {
	pkg := mcmpart.Edge36()
	st, err := newStack(pkg)
	if err != nil {
		return nil, err
	}
	if _, err := st.svc.Planner().Pretrain(ctx, mcmpart.CorpusGraphs(1)[:10], zeroShotPretrain); err != nil {
		st.close()
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	g := mcmpart.BERT()
	graphJSON, err := json.Marshal(g)
	if err != nil {
		st.close()
		return nil, err
	}
	optsOf := func(planSeed int64) mcmpart.PlanOptionsWire {
		return mcmpart.PlanOptionsWire{Method: mcmpart.MethodZeroShot, SampleBudget: zeroShotBudget, Seed: planSeed}
	}
	perm := permutation(seed, sz.ops)
	planSeed := func(i int) int64 {
		if i < 0 {
			return int64(-i) // warm-up seeds sit below the base
		}
		return zeroShotSeedBase + int64(perm[i])
	}
	body := func(i int) []byte {
		o, _ := json.Marshal(optsOf(planSeed(i)))
		return bytes.Join([][]byte{[]byte(`{"graph":`), graphJSON, []byte(`,"options":`), o, []byte(`}`)}, nil)
	}
	in := &instance{svc: st.svc, warmOps: 4, close: st.close, bodyHash: st.bodyHash}
	bodies := map[int][]byte{}
	in.prepare = func(lo, hi int) {
		clear(bodies)
		//mcmlint:ignore ctxloop building a segment's request bodies is bounded client-side work, no samples
		for i := lo; i < hi; i++ {
			bodies[i] = body(i)
		}
	}
	in.run = func(ctx context.Context, i int, ot *opTrace) opOutcome {
		return st.post(ctx, bodies[i], ot)
	}
	in.verify = func(i int, o *opOutcome) error {
		st.sent.Write(bodies[i])
		if err := decodePlan(i, o, false); err != nil {
			return err
		}
		if err := o.res.Partition.ValidateOn(g, pkg); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		return nil
	}
	// Five ops, evenly spaced, planned again by the bare planner: same
	// policy, no cache, no HTTP, and the same bits.
	in.recheck = func(ctx context.Context, outcomes []opOutcome) []error {
		var errs []error
		for k := 0; k < 5; k++ {
			i := k * len(outcomes) / 5
			res, err := st.svc.Planner().Plan(ctx, g, optsOf(planSeed(i)).Options())
			if err != nil || !sameResult(res, outcomes[i].res) {
				errs = append(errs, fmt.Errorf("op %d: direct re-plan differs from the served plan (err %v)", i, err))
			}
		}
		return errs
	}
	return in, nil
}

// permutation is a Fisher-Yates shuffle of 0..n-1 driven by the derive
// stream.
func permutation(seed int64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(derive(seed, streamPermutation, i) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// planSeconds reads sum and count of mcmpart_plan_seconds{path} from the
// service's own registry — the instrument /metrics serves.
func planSeconds(svc *mcmpart.Service, path string) [2]float64 {
	h := svc.Metrics().Histogram("mcmpart_plan_seconds", "", telemetry.DefBuckets, telemetry.Label{Name: "path", Value: path})
	return [2]float64{h.Sum(), float64(h.Count())}
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}
