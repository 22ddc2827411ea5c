package telemetry

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+2; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// le is inclusive: 0.01 lands in the first bucket, 2 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestGetOrCreateReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Label{"k", "v"})
	b := r.Counter("x_total", "other help ignored", Label{"k", "v"})
	if a != b {
		t.Fatal("same name and labels must return the same counter")
	}
	c := r.Counter("x_total", "help", Label{"k", "w"})
	if a == c {
		t.Fatal("different label values must be distinct series")
	}
	// Label order must not matter.
	h1 := r.Histogram("lat_seconds", "h", []float64{1}, Label{"a", "1"}, Label{"b", "2"})
	h2 := r.Histogram("lat_seconds", "h", []float64{1}, Label{"b", "2"}, Label{"a", "1"})
	if h1 != h2 {
		t.Fatal("label order must not create a new series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs processed", Label{"state", "done"}).Add(3)
	r.Counter("jobs_total", "jobs processed", Label{"state", "failed"}).Add(1)
	r.GaugeFunc("depth", "queue depth", func() float64 { return 2 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP depth queue depth
# TYPE depth gauge
depth 2
# HELP jobs_total jobs processed
# TYPE jobs_total counter
jobs_total{state="done"} 3
jobs_total{state="failed"} 1
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 3.9
lat_seconds_count 3
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Deterministic: a second write of the same state is byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != got {
		t.Fatal("two writes of the same state differ")
	}
}

// TestRegistryFill pins the tag walk ServiceStats is filled by: every
// instrument kind, labelled series keyed exactly as the exposition prints
// them, a tag naming no series zeroing a stale field (a histogram prints no
// line under its bare name), and an untagged field left alone.
func TestRegistryFill(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "j", Label{"state", "done"}, Label{"a", "x"}).Add(3)
	r.Counter("jobs_total", "j", Label{"state", "failed"}).Add(9)
	r.Gauge("depth", "d").Set(-2)
	r.GaugeFunc("ratio", "r", func() float64 { return 0.5 })
	r.GaugeFunc("on", "o", func() float64 { return 1 })
	h := r.Histogram("lat_seconds", "l", []float64{1}, Label{"path", "cold"})
	h.Observe(0.25)
	h.Observe(2)

	type stats struct {
		Done  uint64  `metric:"jobs_total{a=\"x\",state=\"done\"}"`
		Depth int     `metric:"depth"`
		Ratio float64 `metric:"ratio"`
		On    bool    `metric:"on"`
		Count int     `metric:"lat_seconds_count{path=\"cold\"}"`
		Sum   float64 `metric:"lat_seconds_sum{path=\"cold\"}"`
		Stale uint64  `metric:"jobs_total{state=\"shed\"}"`
		Bare  uint64  `metric:"lat_seconds{path=\"cold\"}"`
		Note  string
	}
	got := stats{Stale: 7, Bare: 7, Note: "kept"}
	r.Fill(&got)
	want := stats{Done: 3, Depth: -2, Ratio: 0.5, On: true, Count: 2, Sum: 2.25, Note: "kept"}
	if got != want {
		t.Fatalf("Fill = %+v, want %+v", got, want)
	}

	// Each key that read a series is a line of the exposition.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeFor[stats]()
	for _, name := range []string{"Done", "Depth", "Ratio", "On", "Count", "Sum"} {
		f, _ := typ.FieldByName(name)
		if key := f.Tag.Get("metric"); !strings.Contains(sb.String(), "\n"+key+" ") {
			t.Errorf("%s's key %s is not a line of the exposition:\n%s", name, key, sb.String())
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "multi\nline \\help", Label{"p", `a"b\c` + "\n"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, `# HELP weird_total multi\nline \\help`) {
		t.Fatalf("help not escaped:\n%s", got)
	}
	if !strings.Contains(got, `weird_total{p="a\"b\\c\n"} 1`) {
		t.Fatalf("label value not escaped:\n%s", got)
	}
}

// TestObservationAllocatesNothing pins the hot-path contract: one
// observation on any metric type allocates zero bytes.
func TestObservationAllocatesNothing(t *testing.T) {
	var c Counter
	var g Gauge
	h := newHistogram(DefBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		g.Add(-1)
		h.Observe(0.042)
	}); n != 0 {
		t.Fatalf("observation allocated %v times per run, want 0", n)
	}
}

// TestConcurrentScrapeAndObserve exercises observation racing exposition
// and registration — run under -race in CI. The workers start with the
// first scrape, scrapes run until the workers are done, and every tenth
// observation registers a new series of a shared family and a new family,
// so both of Registry.mu's fields are written while WritePrometheus reads
// them.
func TestConcurrentScrapeAndObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", DefBuckets)
	const perWorker = 500
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 100)
				r.Counter("dyn_total", "dynamic", Label{"w", string(rune('a' + w))}).Inc()
				if i%10 == 0 {
					n := strconv.Itoa(w*perWorker + i)
					r.Counter("dyn_total", "dynamic", Label{"w", n}).Inc()
					r.Counter("dyn_"+n+"_total", "dynamic family").Inc()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(start)
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
	}
	if c.Value() != 4*perWorker || h.Count() != 4*perWorker {
		t.Fatalf("recorded %d/%d observations, want %d", c.Value(), h.Count(), 4*perWorker)
	}
}
