// Command mcmpartd serves partition planning over HTTP: a long-lived
// mcmpart.Service — concurrency-safe planner, byte-bounded plan cache,
// directory-backed policy registry, async job queue — behind the JSON API
// documented on mcmpart.NewHTTPHandler.
//
// Usage:
//
//	mcmpartd [-addr :7433] [-mcm dev8] [-policy-dir DIR] [-policy FILE]
//	         [-pool-workers N] [-queue N] [-cache-dir DIR]
//	         [-drain-timeout D] [-workers N] [-log-json]
//
// -mcm selects the package the daemon plans for: a preset name (dev4,
// dev8, dev8bi, edge36, het4, mesh16) or a path to a package JSON
// descriptor. One daemon serves one package; run one instance per package.
//
// -policy-dir opens (creating if missing) a policy registry directory. The
// newest artifact pre-trained for the daemon's package is installed at
// startup, and — because selection also happens lazily at plan time — an
// artifact dropped into the directory later is picked up by the first
// zeroshot/finetune request that needs it. -policy installs one explicit
// artifact instead (both may be given; -policy wins at startup).
//
// -pool-workers bounds how many plans run concurrently; -queue how many
// admitted jobs may wait (further submissions get HTTP 429). What the
// daemon keeps between requests — plans, known request bodies, finished
// jobs, a policy's per-graph deployments, the training kits of graphs
// planned RL, by random search or by annealing — is bounded in bytes by
// constants, not flags (DESIGN.md §8, "What outlives a request");
// mcmpart_rl_plans_total{kit} reports how many RL plans ran on a trainer
// an earlier RL plan of their graph left.
// -cache-dir adds a crash-safe persistent plan-cache tier under the
// in-memory cache: completed plans are written through and survive daemon
// restarts bit-identically. -workers sets the process-wide compute budget
// the running plans share between them (kernels, rollout collection).
//
// On SIGINT/SIGTERM the daemon drains instead of dropping work: admission
// stops immediately (new plans get 503 + Retry-After, so a load balancer
// retries elsewhere), previously admitted jobs run to completion — or to
// their best-so-far result if -drain-timeout (default 10s) expires first —
// the disk cache tier is flushed, and only then does the HTTP server shut
// down. Status and stats routes keep serving throughout the drain.
//
// A connection that stalls before its request headers are complete (5 s)
// or sits idle between requests (2 min) is closed; bodies and responses
// have no deadline, because large graphs and long plans stream through them.
//
// A quick session against a running daemon:
//
//	curl -s localhost:7433/healthz
//	curl -s -X POST localhost:7433/v1/plan -d @request.json
//	curl -s localhost:7433/v1/stats
//	curl -s localhost:7433/metrics
//
// Every request is logged through log/slog (text by default, JSON with
// -log-json) with its request ID — the caller's X-Request-ID header or a
// generated one — and measured into the Prometheus registry served at
// GET /metrics (metric contract: DESIGN.md §14). The disk cache tier's
// quarantines and write failures go to the same logger.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mcmpart"
	"mcmpart/internal/mcm"
	"mcmpart/internal/parallel"
)

// A connection that has not delivered its request headers within
// readHeaderTimeout, or that sits idle between requests for idleTimeout, is
// closed, so a client that opens sockets and sends nothing cannot hold them
// forever. There is deliberately no ReadTimeout or WriteTimeout: a large
// graph's body and a long plan's response stream through them.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], nil))
}

// run is main, factored so tests can boot the daemon in-process: flags are
// parsed from args, the bound address is reported on ready (when non-nil)
// once the listener is up, and cancelling ctx shuts the daemon down
// gracefully.
func run(ctx context.Context, args []string, ready chan<- string) int {
	fs := flag.NewFlagSet("mcmpartd", flag.ContinueOnError)
	addr := fs.String("addr", ":7433", "listen address")
	mcmSpec := fs.String("mcm", "dev8", "package to plan for: preset name (dev4, dev8, dev8bi, edge36, het4, mesh16) or package JSON path")
	policyDir := fs.String("policy-dir", "", "policy registry directory (created if missing)")
	policyPath := fs.String("policy", "", "explicit policy artifact to install at startup")
	poolWorkers := fs.Int("pool-workers", 0, "concurrent plans (0 = process default)")
	queueDepth := fs.Int("queue", 0, "job queue depth (0 = 4x pool workers)")
	cacheDir := fs.String("cache-dir", "", "persistent plan cache directory (created if missing); plans survive restarts")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a shutdown signal lets in-flight plans finish before cancelling them (best-so-far results are kept)")
	workers := fs.Int("workers", runtime.NumCPU(), "compute budget the running plans share (kernels, rollouts)")
	logJSON := fs.Bool("log-json", false, "emit request logs as JSON (default: logfmt-style text)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	parallel.SetDefault(*workers)

	var handlerOpts slog.HandlerOptions
	var logHandler slog.Handler = slog.NewTextHandler(os.Stderr, &handlerOpts)
	if *logJSON {
		logHandler = slog.NewJSONHandler(os.Stderr, &handlerOpts)
	}
	logger := slog.New(logHandler)

	pkg, err := mcm.Load(*mcmSpec)
	if err != nil {
		log.Print(err)
		return 1
	}
	svc, err := mcmpart.NewService(pkg, mcmpart.ServiceOptions{
		Workers:    *poolWorkers,
		QueueDepth: *queueDepth,
		CacheDir:   *cacheDir,
		PolicyDir:  *policyDir,
		Logger:     logger,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer svc.Close()
	if *policyPath != "" {
		if err := svc.Planner().LoadPolicy(*policyPath); err != nil {
			log.Print(err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	server := &http.Server{
		Handler:           mcmpart.NewHTTPHandler(svc),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Serve returns as soon as Shutdown closes the listener, while Shutdown
	// is still waiting on active requests: run returns only once shutDown
	// is closed, so those responses are delivered before the process exits.
	shutDown := make(chan struct{})
	go func() {
		defer close(shutDown)
		<-ctx.Done()
		// Drain before shutting the listener down: the server keeps
		// answering during the drain — new plans with 503 + Retry-After,
		// status/stats normally — so in-flight synchronous plans can
		// deliver their responses and pollers can observe their jobs
		// finishing. Then Shutdown waits out any remaining active requests.
		log.Printf("mcmpartd: draining (timeout %s)", *drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		if err := svc.Drain(drainCtx); err != nil {
			log.Printf("mcmpartd: drain deadline hit, in-flight plans cancelled (best-so-far kept): %v", err)
		}
		cancelDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = server.Shutdown(shutdownCtx)
	}()

	log.Printf("mcmpartd: serving package %s (%d chips) on %s (policy installed: %v)",
		pkg.Name, pkg.Chips, ln.Addr(), svc.Planner().HasPolicy())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	if err := server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Print(err)
		stop()
		<-shutDown
		return 1
	}
	<-shutDown
	return 0
}
