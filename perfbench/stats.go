package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a p90 needs at least 100 samples, a p50 at least
// 20. A percentile over fewer samples is dominated by a handful of
// outliers and would make the benchmark noisier than the program.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics, or an error when fewer than
// minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	// The epsilon keeps 100 × (1 - 0.9) from rounding below 10.
	if beyond := float64(n)*(1-p) + 1e-9; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %.0f beyond it (need %d)", 100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the plain median of a small sample (no tail rule: used for
// the repeated set-up timings, whose count the benchmark fixes).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one recorded interval of the traced run: a call into one layer
// of the program, made by the benchmark. Times are nanoseconds since the
// tracer started; Parent is the index of the enclosing span plus one (0
// for a root span); ID names the unit, cell or campaign the span served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     string `json:"id"`
}

// tracer keeps the traced run's spans in memory; they are written once,
// when the run ends. A nil tracer records nothing, so the untraced runs
// that produce the end-to-end metrics pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (0 when t is nil).
func (t *tracer) begin(name string, parent int, id string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(t.spans)
}

// end closes the span behind handle h.
func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[h-1].End = now
	t.mu.Unlock()
}

// durations returns the durations, in milliseconds, of every closed span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
