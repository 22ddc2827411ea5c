// Package telemetry is the stdlib-only metrics layer under the serving
// stack: a registry of counters, gauges, and fixed-bucket histograms with
// a Prometheus text-format exposition writer. It exists so the Service's
// operational numbers have exactly one source of truth — ServiceStats and
// GET /metrics read the same atomics, so the JSON and Prometheus views can
// never disagree.
//
// Design constraints, in order:
//
//   - Observation is the hot path: Counter.Inc, Gauge.Inc/Dec, and
//     Histogram.Observe are single atomic operations (a short CAS loop for
//     the histogram sum) and allocate nothing, so instrumenting a
//     per-request or per-sample path costs nanoseconds and never feeds the
//     GC. The AllocsPerRun tests pin this at zero.
//   - Registration is get-or-create: asking for the same name and label
//     set twice returns the same metric, so independent layers
//     (Service, HTTP handler, disk cache) can instrument themselves
//     without coordinating registration order. Re-registering a name with
//     a different metric kind is a programming error and panics.
//   - Exposition is deterministic: families sort by name, series by label
//     key, so two scrapes of the same state are byte-identical and tests
//     can compare text.
//
// The package deliberately implements the subset of the Prometheus data
// model the daemon needs (no summaries, no exemplars, no sharded
// hot-path striping) — it must build with the standard library only.
//
//mcmlint:hotpath
package telemetry

import (
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is a valid,
// unregistered counter at 0.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 that can move both ways (queue depths, in-flight
// jobs). The zero value is valid and reads 0.
type Gauge struct {
	v atomic.Int64
}

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram in the Prometheus cumulative-`le`
// model. Buckets are chosen at construction and never change; observation
// is a binary search plus two atomic updates, allocation-free.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets, sorted
	// ascending; an implicit +Inf bucket follows. Immutable after New.
	bounds []float64
	// counts[i] counts observations v with v <= bounds[i] (and greater
	// than every earlier bound); counts[len(bounds)] is the +Inf bucket.
	counts []atomic.Uint64
	// sumBits holds math.Float64bits of the running sum, maintained by CAS.
	sumBits atomic.Uint64
}

// DefBuckets are latency buckets in seconds spanning 100µs to 10s — wide
// enough for a warm cache hit (tens of µs land in the first bucket) and a
// multi-second cold plan alike.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// newHistogram builds a histogram with the given finite bucket upper
// bounds. Bounds are copied and sorted; an +Inf bucket is implicit. Empty
// bounds give a single +Inf bucket (count and sum only).
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; all greater bounds also hold it in
	// the cumulative exposition, done by the writer.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// metric kinds, for registration-consistency checks and TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one label combination within a family: exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels    []Label // sorted by name; immutable after registration
	key       string  // canonical label key, for get-or-create
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name, help, kind string
	buckets          []float64 // histogram families only
	series           []*series // guarded by Registry.mu
	byKey            map[string]*series
}

// Registry holds metric families and writes them in Prometheus text
// exposition format. All methods are safe for concurrent use; the
// returned Counter/Gauge/Histogram handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter for name and labels, registering it (and its
// family) on first use. Help is recorded on first registration of the
// family; a later, different help string is ignored. Panics if name is
// already registered as a different kind.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindCounter, nil, labels)
	if s.counterFn != nil {
		panic("telemetry: series " + name + " is registered as a CounterFunc")
	}
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counts the structure that owns them keeps (a store's
// evictions). fn must never decrease. Re-registering the same series
// replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindCounter, nil, labels)
	s.counter = nil
	s.counterFn = fn
}

// Gauge returns the gauge for name and labels, registering on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindGauge, nil, labels)
	if s.gaugeFn != nil {
		panic("telemetry: series " + name + " is registered as a GaugeFunc")
	}
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// for values that already live somewhere authoritative (a channel's len, a
// pool's busy count) where a write-through copy could drift. Re-registering
// the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindGauge, nil, labels)
	s.gauge = nil
	s.gaugeFn = fn
}

// Histogram returns the histogram for name and labels, registering on
// first use with the given finite bucket bounds. Buckets are fixed per
// family: the first registration wins, later bounds are ignored.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindHistogram, buckets, labels)
	if s.hist == nil {
		fam := r.families[name]
		s.hist = newHistogram(fam.buckets)
	}
	return s.hist
}

// seriesLocked is the shared get-or-create: family by name (kind must
// match), series by canonical label key.
func (r *Registry) seriesLocked(name, help, kind string, buckets []float64, labels []Label) *series {
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		if kind == kindHistogram {
			fam.buckets = make([]float64, len(buckets))
			copy(fam.buckets, buckets)
			sort.Float64s(fam.buckets)
		}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic("telemetry: metric " + name + " registered as " + fam.kind + ", requested as " + kind)
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	key := labelKey(sorted)
	if s, ok := fam.byKey[key]; ok {
		return s
	}
	s := &series{labels: sorted, key: key}
	fam.byKey[key] = s
	fam.series = append(fam.series, s)
	return s
}

// labelKey canonicalizes a sorted label list into one lookup string.
func labelKey(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// Fill sets each field of the struct dst points to that carries a
// `metric:"series"` tag from that series, named as WritePrometheus prints
// it: `name`, `name{label="value",...}` with labels sorted by name, or a
// histogram's `name_count{...}` or `name_sum{...}`. Fields are read one at
// a time in declaration order, so a struct whose invariants depend on read
// order (a counter that is incremented last read first) states that order
// by declaring its fields in it. A tag naming no registered series zeroes
// its field; untagged fields are left as they are. Tagged fields are
// numbers, or bools that read true when the series is nonzero.
func (r *Registry) Fill(dst any) {
	v := reflect.ValueOf(dst).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, ok := v.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		switch f, x := v.Field(i), r.read(name); {
		case !x.IsValid():
			f.SetZero()
		case f.Kind() == reflect.Bool:
			f.SetBool(!x.IsZero())
		default:
			f.Set(x.Convert(f.Type()))
		}
	}
}

// read returns the current value of the series printed as name, or the
// zero Value when no such series is registered. The value is read outside
// the registry lock, as WritePrometheus reads it.
func (r *Registry) read(name string) reflect.Value {
	s, sum := r.lookup(name)
	switch {
	case s == nil:
		return reflect.Value{}
	case s.counter != nil:
		return reflect.ValueOf(s.counter.Value())
	case s.counterFn != nil:
		return reflect.ValueOf(s.counterFn())
	case s.gauge != nil:
		return reflect.ValueOf(s.gauge.Value())
	case s.gaugeFn != nil:
		return reflect.ValueOf(s.gaugeFn())
	case sum:
		return reflect.ValueOf(s.hist.Sum())
	}
	return reflect.ValueOf(s.hist.Count())
}

// lookup finds the series WritePrometheus prints as name and, for a
// histogram, whether name is its _sum line rather than its _count line.
func (r *Registry) lookup(name string) (*series, bool) {
	family, _, _ := strings.Cut(name, "{")
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, suffix := r.families[family], ""
	for _, sfx := range [...]string{"_count", "_sum"} {
		if base, ok := strings.CutSuffix(family, sfx); ok && fam == nil {
			fam, suffix = r.families[base], sfx
		}
	}
	if fam == nil || (fam.kind == kindHistogram) != (suffix != "") {
		return nil, false
	}
	var buf [128]byte
	for _, s := range fam.series {
		if string(appendName(buf[:0], family, s.labels, "")) == name {
			return s, suffix == "_sum"
		}
	}
	return nil, false
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format (version 0.0.4). Families are sorted by name and
// series by label key, so output for a fixed state is byte-identical
// across calls.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	// Series slices only grow and series themselves are immutable after
	// registration (values are atomics), so rendering can proceed outside
	// the lock against a snapshot of each slice.
	snaps := make([][]*series, len(fams))
	for i, fam := range fams {
		snaps[i] = append(make([]*series, 0, len(fam.series)), fam.series...)
		sort.Slice(snaps[i], func(a, b int) bool { return snaps[i][a].key < snaps[i][b].key })
	}
	r.mu.Unlock()

	buf := make([]byte, 0, 4096)
	for i, fam := range fams {
		buf = buf[:0]
		buf = appendFamilyHeader(buf, fam)
		for _, s := range snaps[i] {
			buf = appendSeries(buf, fam, s)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendFamilyHeader renders the # HELP and # TYPE lines.
func appendFamilyHeader(buf []byte, fam *family) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, fam.name...)
	buf = append(buf, ' ')
	buf = appendEscaped(buf, fam.help, false)
	buf = append(buf, '\n')
	buf = append(buf, "# TYPE "...)
	buf = append(buf, fam.name...)
	buf = append(buf, ' ')
	buf = append(buf, fam.kind...)
	buf = append(buf, '\n')
	return buf
}

// appendSeries renders one series' sample lines.
func appendSeries(buf []byte, fam *family, s *series) []byte {
	switch {
	case s.counter != nil:
		buf = appendName(buf, fam.name, s.labels, "")
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, s.counter.Value(), 10)
		buf = append(buf, '\n')
	case s.counterFn != nil:
		buf = appendName(buf, fam.name, s.labels, "")
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, s.counterFn(), 10)
		buf = append(buf, '\n')
	case s.gaugeFn != nil:
		buf = appendName(buf, fam.name, s.labels, "")
		buf = append(buf, ' ')
		buf = appendFloat(buf, s.gaugeFn())
		buf = append(buf, '\n')
	case s.gauge != nil:
		buf = appendName(buf, fam.name, s.labels, "")
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, s.gauge.Value(), 10)
		buf = append(buf, '\n')
	case s.hist != nil:
		var cum uint64
		for i := range s.hist.counts {
			cum += s.hist.counts[i].Load()
			le := "+Inf"
			if i < len(s.hist.bounds) {
				le = strconv.FormatFloat(s.hist.bounds[i], 'g', -1, 64)
			}
			buf = appendName(buf, fam.name+"_bucket", s.labels, le)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, cum, 10)
			buf = append(buf, '\n')
		}
		buf = appendName(buf, fam.name+"_sum", s.labels, "")
		buf = append(buf, ' ')
		buf = appendFloat(buf, s.hist.Sum())
		buf = append(buf, '\n')
		buf = appendName(buf, fam.name+"_count", s.labels, "")
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// appendName renders name{labels} with an optional trailing le label (the
// histogram bucket bound).
func appendName(buf []byte, name string, labels []Label, le string) []byte {
	buf = append(buf, name...)
	if len(labels) == 0 && le == "" {
		return buf
	}
	buf = append(buf, '{')
	first := true
	for _, l := range labels {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, l.Name...)
		buf = append(buf, '=', '"')
		buf = appendEscaped(buf, l.Value, true)
		buf = append(buf, '"')
	}
	if le != "" {
		if !first {
			buf = append(buf, ',')
		}
		buf = append(buf, "le=\""...)
		buf = append(buf, le...)
		buf = append(buf, '"')
	}
	buf = append(buf, '}')
	return buf
}

// appendFloat renders a float the way the exposition format expects.
func appendFloat(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendEscaped escapes backslash and newline (plus double quote inside
// label values) per the exposition format.
func appendEscaped(buf []byte, s string, quoteLabel bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '"':
			if quoteLabel {
				buf = append(buf, '\\', '"')
			} else {
				buf = append(buf, c)
			}
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// Handler serves the registry as a Prometheus scrape target — mount it at
// GET /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
