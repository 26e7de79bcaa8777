package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/testkit"
)

// withEnabled runs the test body with collection forced on and restores
// the previous state (tests share the process-global flag).
func withEnabled(t *testing.T, on bool, body func()) {
	t.Helper()
	prev := SetEnabled(on)
	defer SetEnabled(prev)
	body()
}

func TestCounterDisabledIsNoOp(t *testing.T) {
	withEnabled(t, false, func() {
		c := &Counter{}
		c.Inc()
		c.Add(41)
		if c.Value() != 0 {
			t.Errorf("disabled counter accumulated %d", c.Value())
		}
		g := &Gauge{}
		g.Add(3)
		g.Set(7)
		if g.Value() != 0 || g.Max() != 0 {
			t.Errorf("disabled gauge moved: %d/%d", g.Value(), g.Max())
		}
		h := newHistogram([]float64{1, 2})
		h.Observe(1.5)
		if h.Count() != 0 || h.Sum() != 0 {
			t.Errorf("disabled histogram recorded %d/%g", h.Count(), h.Sum())
		}
	})
}

func TestCounterConcurrent(t *testing.T) {
	withEnabled(t, true, func() {
		c := &Counter{}
		const gor, per = 16, 1000
		var wg sync.WaitGroup
		for g := 0; g < gor; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		if c.Value() != gor*per {
			t.Errorf("counter %d, want %d", c.Value(), gor*per)
		}
	})
}

func TestGaugeTracksHighWater(t *testing.T) {
	withEnabled(t, true, func() {
		g := &Gauge{}
		g.Add(2)
		g.Add(3)
		g.Add(-4)
		if g.Value() != 1 {
			t.Errorf("value %d", g.Value())
		}
		if g.Max() != 5 {
			t.Errorf("max %d", g.Max())
		}
		g.Set(10)
		if g.Value() != 10 || g.Max() != 10 {
			t.Errorf("set: %d/%d", g.Value(), g.Max())
		}
	})
}

func TestGaugeConcurrentNetsToZero(t *testing.T) {
	withEnabled(t, true, func() {
		g := &Gauge{}
		const gor = 32
		var wg sync.WaitGroup
		for i := 0; i < gor; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.Add(1)
				g.Add(-1)
			}()
		}
		wg.Wait()
		if g.Value() != 0 {
			t.Errorf("gauge drifted to %d", g.Value())
		}
		if g.Max() < 1 || g.Max() > gor {
			t.Errorf("implausible high-water %d", g.Max())
		}
	})
}

func TestHistogramBucketsAndSum(t *testing.T) {
	withEnabled(t, true, func() {
		h := newHistogram([]float64{1, 10, 100})
		for _, v := range []float64{0.5, 1, 5, 50, 500, 1e9} {
			h.Observe(v)
		}
		if h.Count() != 6 {
			t.Errorf("count %d", h.Count())
		}
		want := []int64{2, 1, 1, 2} // <=1: {0.5, 1}; <=10: {5}; <=100: {50}; overflow: {500, 1e9}
		for i, w := range want {
			if got := h.counts[i].Load(); got != w {
				t.Errorf("bucket %d: %d, want %d", i, got, w)
			}
		}
		if math.Abs(h.Sum()-(0.5+1+5+50+500+1e9)) > 1e-6 {
			t.Errorf("sum %g", h.Sum())
		}
	})
}

func TestHistogramConcurrent(t *testing.T) {
	withEnabled(t, true, func() {
		h := newHistogram(ExpBuckets(1, 2, 10))
		const gor, per = 8, 2000
		var wg sync.WaitGroup
		for g := 0; g < gor; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					h.Observe(float64(g%4) + 0.5)
				}
			}()
		}
		wg.Wait()
		if h.Count() != gor*per {
			t.Errorf("count %d, want %d", h.Count(), gor*per)
		}
		var total int64
		for i := range h.counts {
			total += h.counts[i].Load()
		}
		if total != gor*per {
			t.Errorf("bucket total %d, want %d", total, gor*per)
		}
		// Sum accumulates via CAS: exact for these half-integer values.
		want := float64(per) * (0.5 + 1.5 + 2.5 + 3.5) * float64(gor) / 4
		if h.Sum() != want {
			t.Errorf("sum %g, want %g", h.Sum(), want)
		}
	})
}

func TestRegistryInternsAndResets(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		c1 := r.Counter("a.b")
		c2 := r.Counter("a.b")
		if c1 != c2 {
			t.Error("counter not interned")
		}
		c1.Inc()
		g := r.Gauge("g")
		g.Add(4)
		h := r.Histogram("h", []float64{1})
		h.Observe(0.5)
		if h2 := r.Histogram("h", []float64{99}); h2 != h {
			t.Error("histogram not interned")
		}
		r.Reset()
		if c1.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
			t.Error("reset left residue")
		}
		// Pointers stay valid after reset.
		c1.Inc()
		if r.Counter("a.b").Value() != 1 {
			t.Error("pointer invalidated by reset")
		}
	})
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 100; j++ {
					r.Counter("shared").Inc()
				}
			}()
		}
		wg.Wait()
		if got := r.Counter("shared").Value(); got != 1600 {
			t.Errorf("interleaved registration lost counts: %d", got)
		}
	})
}

func TestSnapshotAndCanonicalJSON(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		r.Counter("z.last").Add(2)
		r.Counter("a.first").Add(1)
		r.Gauge("g").Set(3)
		r.Histogram("lat", []float64{1, 2}).Observe(1.5)
		s := r.Snapshot()
		if s.Counters["z.last"] != 2 || s.Counters["a.first"] != 1 {
			t.Errorf("counters %v", s.Counters)
		}
		if s.Gauges["g"].Value != 3 || s.Gauges["g"].Max != 3 {
			t.Errorf("gauges %v", s.Gauges)
		}
		hv := s.Histograms["lat"]
		if hv.Count != 1 || hv.Sum != 1.5 || len(hv.Counts) != 3 || hv.Counts[1] != 1 {
			t.Errorf("histogram %+v", hv)
		}
	})
}

func TestMarshalSnapshotDeterministic(t *testing.T) {
	withEnabled(t, true, func() {
		Reset()
		C("det.a").Inc()
		C("det.b").Add(2)
		H("det.h", []float64{1}).Observe(0.25)
		b1, err := MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := MarshalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Error("back-to-back snapshots differ")
		}
		for _, want := range []string{`"det.a": 1`, `"det.b": 2`, `"det.h"`} {
			if !strings.Contains(string(b1), want) {
				t.Errorf("snapshot JSON missing %q:\n%s", want, b1)
			}
		}
		Reset()
	})
}

func TestCounterNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Counter("a")
	r.Counter("c")
	names := r.CounterNames()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("names %v", names)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 3)
	want := []float64{1e-6, 4e-6, 16e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestEnableDisableRoundTrip(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if Enabled() {
		t.Error("expected disabled")
	}
	Enable()
	if !Enabled() {
		t.Error("Enable did not stick")
	}
	Disable()
	if Enabled() {
		t.Error("Disable did not stick")
	}
}

// Snapshotting while other goroutines flip the global enable switch and
// mutate metrics must be race-free and every snapshot internally sane:
// counters only grow and histograms keep their bucket shape.
func TestSnapshotUnderConcurrentEnableDisable(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	r := NewRegistry()
	c := r.Counter("flip.hits")
	h := r.Histogram("flip.lat", ExpBuckets(1, 10, 4))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Togglers hammer the global switch.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					SetEnabled(i%2 == 0)
				}
			}
		}()
	}
	// Writers mutate through the gated paths.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(float64(i % 100))
					r.Gauge("flip.active").Add(1)
					r.Gauge("flip.active").Add(-1)
				}
			}
		}()
	}
	var last int64 = -1
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		got := s.Counters["flip.hits"]
		if got < last {
			t.Fatalf("counter went backwards: %d -> %d", last, got)
		}
		last = got
		if hv, ok := s.Histograms["flip.lat"]; ok {
			// Individual cells are read atomically; the only structural
			// invariant under concurrent writers is shape, not balance.
			if len(hv.Counts) != len(hv.Bounds)+1 {
				t.Fatalf("histogram shape: %d counts for %d bounds", len(hv.Counts), len(hv.Bounds))
			}
		}
	}
	close(stop)
	wg.Wait()
	// A final snapshot must marshal canonically regardless of where the
	// togglers left the switch.
	SetEnabled(true)
	if _, err := testkit.MarshalCanonical(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
}
