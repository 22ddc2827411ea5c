// Example serving demonstrates the concurrent planning service end to end,
// in one process: build a Service with a policy registry, expose it over
// HTTP exactly as cmd/mcmpartd does, and drive it with the thin Go client —
// a cold plan, a cached repeat (bit-identical), an async job with progress
// polling, and the operational stats.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mcmpart"
)

func main() {
	ctx := context.Background()

	// Pre-train once and drop the artifact into a registry directory —
	// normally done offline, by another process, possibly another machine.
	dir, err := os.MkdirTemp("", "mcmpart-registry-*")
	check(err)
	defer os.RemoveAll(dir)
	pl, err := mcmpart.NewPlanner(mcmpart.Dev8())
	check(err)
	corpus := mcmpart.CorpusGraphs(1)
	fmt.Println("pre-training a dev8 policy (small budget for the demo)…")
	_, err = pl.Pretrain(ctx, corpus[:6], mcmpart.PretrainOptions{
		TotalSamples: 120, Checkpoints: 3, ValidationGraphs: 1, ValidationSamples: 4,
	})
	check(err)
	check(pl.SavePolicy(filepath.Join(dir, "dev8.policy.json")))

	// The serving side: one Service per package, shared by every caller.
	// The newest registry policy for dev8 is installed automatically.
	svc, err := mcmpart.NewService(mcmpart.Dev8(), mcmpart.ServiceOptions{
		Workers:   2,
		PolicyDir: dir,
	})
	check(err)
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	server := &http.Server{Handler: mcmpart.NewHTTPHandler(svc)}
	//mcmlint:ignore goleak Serve returns when the deferred server.Close runs; the example exits right after
	go server.Serve(ln)
	defer server.Close()
	cl := mcmpart.NewClient("http://"+ln.Addr().String(), nil, mcmpart.ClientOptions{})
	check(cl.Health(ctx))
	fmt.Println("daemon up on", ln.Addr())

	// A held-out graph the policy never saw, planned zero-shot over HTTP.
	held := corpus[84]
	opts := mcmpart.PlanOptions{Method: mcmpart.MethodZeroShot, SampleBudget: 10, Seed: 7}
	start := time.Now()
	first, err := cl.Plan(ctx, held, opts)
	check(err)
	fmt.Printf("cold plan of %s: %.2fx over greedy in %d samples (%.1f ms, cached=%v)\n",
		held.Name(), first.Result.Improvement, first.Result.Samples,
		ms(start), first.Cached)

	start = time.Now()
	second, err := cl.Plan(ctx, held, opts)
	check(err)
	fmt.Printf("same request again: cached=%v, identical=%v (%.2f ms)\n",
		second.Cached,
		first.Result.Throughput == second.Result.Throughput, ms(start))

	// The async job API: submit, poll progress, fetch the result.
	st, err := cl.SubmitJob(ctx, corpus[85], mcmpart.PlanOptions{
		Method: mcmpart.MethodFineTune, SampleBudget: 24, Seed: 7,
	})
	check(err)
	fmt.Printf("submitted %s (%s)\n", st.ID, st.State)
	final, err := cl.WaitJob(ctx, st.ID, 25*time.Millisecond)
	check(err)
	fmt.Printf("%s finished: state=%s improvement=%.2fx samples=%d\n",
		final.ID, final.State, final.Result.Improvement, final.Samples)

	stats, err := cl.Stats(ctx)
	check(err)
	fmt.Printf("stats: %d misses / %d hits, %d jobs done, policy installed=%v\n",
		stats.CacheMisses, stats.CacheHits, stats.JobsDone, stats.PolicyInstalled)
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
