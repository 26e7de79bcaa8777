package obs

import (
	"sort"
	"sync"

	"repro/internal/testkit"
)

// Registry interns metrics by name. Registration (C/G/H) takes a mutex and
// is expected at package init or on cold paths only; the returned pointers
// are then free to use lock-free forever. Names are dot-separated
// lowercase paths ("skew.cost.evals", "dsp.plan.hits.4096.fwd").
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry. Most callers use the process-wide
// Default registry through the package-level C/G/H helpers.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// def is the process-wide registry every instrumented package shares.
var def = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. An existing histogram keeps its original bounds —
// callers registering the same name must agree on them.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric (values, high-water marks, bucket
// counts). Instruments stay registered and previously returned pointers
// stay valid — this is the "start of run" marker that turns absolute
// counters into per-run deltas.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// C returns the named counter from the default registry.
func C(name string) *Counter { return def.Counter(name) }

// G returns the named gauge from the default registry.
func G(name string) *Gauge { return def.Gauge(name) }

// H returns the named histogram from the default registry.
func H(name string, bounds []float64) *Histogram { return def.Histogram(name, bounds) }

// Reset zeroes every metric in the default registry.
func Reset() { def.Reset() }

// GaugeValue is the snapshot form of one gauge.
type GaugeValue struct {
	Value int64
	Max   int64
}

// HistogramValue is the snapshot form of one histogram: Counts[i] pairs
// with Bounds[i]; the final extra entry of Counts is the overflow bucket.
type HistogramValue struct {
	Count  int64
	Sum    float64
	Bounds []float64
	Counts []int64
}

// Snapshot is a consistent-enough copy of a registry: each individual
// value is read atomically; the set of metrics is captured under the
// registration lock. Field names and map ordering are stabilised by
// testkit.MarshalCanonical, making two snapshots of identical state
// byte-identical.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]GaugeValue
	Histograms map[string]HistogramValue
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeValue, len(r.gauges)),
		Histograms: make(map[string]HistogramValue, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hv
	}
	return s
}

// CounterNames returns the sorted names of every registered counter —
// handy for discovering what a run recorded.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MarshalSnapshot encodes the default registry's snapshot as canonical
// JSON (declaration-order fields, sorted map keys, shortest round-trip
// floats), so emitting it from bistlab or a test is byte-deterministic for
// deterministic metric state.
func MarshalSnapshot() ([]byte, error) {
	return testkit.MarshalCanonical(def.Snapshot())
}
