// Command bench is the repository's benchmark: one invocation runs one named
// workload from a seed, checks every output, and prints every metric by name
// with its unit — the end-to-end metrics by default, the per-layer metrics
// and a span file with -trace 1. README.md explains the workloads, the drift
// correction and how the layers map onto the end-to-end numbers.
//
// Usage (run.sh builds and execs this):
//
//	bench -workload serve-warm -seed 7 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is non-zero only when the
// metric set could not be produced; failed ops are a result, not a crash.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// noisyIQR is the spread of the reference kernel within one run beyond
// which the run says so: a reviewer discards such a run instead of arguing
// with it.
const noisyIQR = 0.15

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// result is everything one run measured.
type result struct {
	workload string
	n        int
	ph       *phase
	setupS   []float64 // raw set-up durations, seconds
	setupCal []float64 // reference-kernel samples, ms: one before each set-up and one after the last
	rechecks []error
	bodyHash string
	probes   map[string]float64 // traced runs only
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: bert-rl, bert-search-sim, serve-warm, serve-zeroshot")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&cfg.seconds, "seconds", runSeconds, "nominal length of the measured phase; op counts scale with it in whole quanta")
	fs.IntVar(&trace, "trace", 0, "1 records spans, runs the per-layer probes and prints the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory for the span file and probe scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	w, ok := findWorkload(cfg.workload)
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(stderr, "bench: unknown workload %q or bad -seconds %d\n", cfg.workload, cfg.seconds)
		fs.Usage()
		return 2
	}
	res, err := run(context.Background(), cfg, w, w.sizing.scaled(cfg.seconds), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// run sets the workload up sz.setupReps times, warms the last set-up, runs
// the measured phase on it and re-checks its plans.
func run(ctx context.Context, cfg config, w workload, sz sizing, log io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		// Half the ops: the traced run also pays for the probes, and the
		// per-layer metrics are medians and counts per op, not totals.
		sz.ops = sz.wholeQuanta(sz.ops / 2)
	}
	res := &result{workload: w.name, n: sz.ops}
	cal := newCalibrator()

	var in *instance
	cal.sample(1, &res.setupCal, tr)
	for rep := 0; rep < sz.setupReps; rep++ {
		if in != nil {
			in.close()
		}
		s := tr.begin("setup", 0)
		start := time.Now()
		var err error
		in, err = w.setup(ctx, cfg.seed, sz)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(start).Seconds())
		tr.end(s)
		cal.sample(1, &res.setupCal, tr)
	}
	defer in.close()

	s := tr.begin("warmup", 0)
	if in.prepare != nil {
		in.prepare(-in.warmOps, 0)
	}
	for i := -in.warmOps; i < 0; i++ {
		if o := in.run(ctx, i, nil); o.err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, o.err)
		}
	}
	tr.end(s)
	// One collection before the clock starts, so the measured phase begins
	// from the same heap whatever the set-ups left behind; none inside it.
	runtime.GC()

	res.ph = measure(ctx, in, sz, cal, tr)
	res.rechecks = in.recheck(ctx, res.ph.outcomes)
	if in.bodyHash != nil {
		res.bodyHash = in.bodyHash()
	}
	for _, err := range slices.Concat(res.ph.failures, res.rechecks) {
		fmt.Fprintf(log, "FAIL %v\n", err)
	}
	if cfg.trace {
		probes, err := runProbes(ctx, cfg, w, tr)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		res.probes = probes
		path, err := tr.write(cfg.outDir, w.name)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %d written to %s\n", len(tr.spans), path)
	}
	return res, nil
}

// failed is the number of ops that failed a check, the re-checks included.
func (r *result) failed() int {
	return min(r.n, len(r.ph.failures)+len(r.rechecks))
}

// untraced selects the ops whose latency stands for the workload: all of
// them in an untraced run, the even segments in a traced one.
func untraced(o *opOutcome) bool { return !o.traced }

// hostMetrics are the calibration readings and the raw timings; both output
// modes print them.
type hostMetrics struct {
	calibMs, calibIQR, drift float64
	rawP50, rawOpsPerS       float64
}

func (r *result) host() hostMetrics {
	h := hostMetrics{calibMs: median(r.ph.calib), calibIQR: iqrRatio(r.ph.calib)}
	h.drift = ratio(calibRefMs, h.calibMs)
	h.rawP50 = median(r.ph.latencies(untraced))
	h.rawOpsPerS = ratio(float64(r.n), r.ph.wall().Seconds())
	return h
}

// endToEndValues computes the gated metrics. Wall-clock ones are drift-
// corrected segment by segment: every op latency and every segment's wall
// time is scaled by calibRefMs over the reference kernel's median in the two
// pauses around that segment, i.e. reported as if the kernel had taken
// calibRefMs there. (The host changes speed by a quarter within seconds; one
// factor per run left twice the spread.)
func (r *result) endToEndValues() map[string]float64 {
	n := float64(r.n)
	var lat []float64
	wall := 0.0
	for _, sg := range r.ph.segs {
		f := ratio(calibRefMs, sg.calib)
		for i := sg.lo; i < sg.hi; i++ {
			lat = append(lat, ms(r.ph.outcomes[i].lat)*f)
		}
		wall += sg.wall.Seconds() * f
	}
	setups := make([]float64, len(r.setupS))
	for i, s := range r.setupS {
		setups[i] = s * ratio(calibRefMs, (r.setupCal[i]+r.setupCal[i+1])/2)
	}
	return map[string]float64{
		"setup_s":         median(setups),
		"op_p50_ms":       median(lat),
		"ops_per_s":       ratio(n, wall),
		"alloc_mb_per_op": float64(r.ph.allocBytes) / 1e6 / n,
		"allocs_k_per_op": float64(r.ph.mallocs) / 1e3 / n,
		"peak_rss_mb":     peakRSSMB(),
		"quality":         quality(r.ph.outcomes),
	}
}

// report prints every metric of the run's mode by name with its unit, then
// the JSON line the driver reads.
func report(out io.Writer, cfg config, r *result) error {
	defs, values := endToEnd, r.endToEndValues()
	if cfg.trace {
		defs, values = perLayer, r.perLayerValues()
	}
	h := r.host()
	fmt.Fprintf(out, "workload %s seed %d ops %d (sample count of op_p50_ms: %d) calib %.2f ms x%d iqr %.3f noisy: %t\n",
		cfg.workload, cfg.seed, r.n, len(r.ph.latencies(untraced)), h.calibMs, len(r.ph.calib), h.calibIQR, h.calibIQR > noisyIQR)
	if !cfg.trace {
		fmt.Fprintf(out, "raw op_p50_ms %.4f raw ops_per_s %.4f raw setup_s %.4f drift_factor %.4f fail_ratio %.4f\n",
			h.rawP50, h.rawOpsPerS, median(r.setupS), h.drift, ratio(float64(r.failed()), float64(r.n)))
	}
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not produced", d.name)
		}
		metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(out, "%-34s %14.4f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed() == 0, r.n, r.failed(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// peakRSSMB is VmHWM of this process in MB (1e6 bytes), 0 if unreadable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
