package obs

import (
	"testing"

	"repro/internal/obs/trace"
)

// record runs body under a fresh trace recording and returns its spans by
// name.
func record(t *testing.T, body func()) map[string]trace.SpanData {
	t.Helper()
	if err := trace.StartRecording(trace.Config{}); err != nil {
		t.Fatal(err)
	}
	body()
	rec := trace.StopRecording()
	spans := map[string]trace.SpanData{}
	for _, s := range rec.Spans {
		if _, dup := spans[s.Name]; dup {
			t.Fatalf("span %q recorded twice", s.Name)
		}
		spans[s.Name] = s
	}
	return spans
}

func TestStageOneSpanOneObservation(t *testing.T) {
	withEnabled(t, true, func() {
		st := NewStage("test.stage.one", "test.stage.one.seconds")
		h := H("test.stage.one.seconds", LatencyBuckets)
		h.reset()
		tnParent, tnChild := trace.Intern("test.stage.parent"), trace.Intern("test.stage.child")
		spans := record(t, func() {
			parent := trace.Start(trace.Root, tnParent)
			sp := st.Start(parent.Ctx())
			sp.SetAttr("k", "v")
			child := trace.Start(sp.Ctx(), tnChild)
			child.End()
			sp.End()
			parent.End()
		})
		if h.Count() != 1 || h.Sum() <= 0 {
			t.Errorf("histogram count %d sum %g, want exactly one positive observation", h.Count(), h.Sum())
		}
		if len(spans) != 3 {
			t.Fatalf("recorded spans %v, want parent, stage and child", spans)
		}
		p, s, c := spans["test.stage.parent"], spans["test.stage.one"], spans["test.stage.child"]
		if s.ID == 0 || s.Parent != p.ID {
			t.Errorf("stage span parent %d, want %d", s.Parent, p.ID)
		}
		if c.Parent != s.ID {
			t.Errorf("child span parent %d, want the stage span %d", c.Parent, s.ID)
		}
		if len(s.Attrs) != 1 || s.Attrs[0] != (trace.Attr{Key: "k", Val: "v"}) {
			t.Errorf("stage attrs %v", s.Attrs)
		}
	})
}

// The two gates are independent: metrics off leaves the histogram alone
// while a recording still gets its span, and with both off End records
// nothing at all.
func TestStageGatesOff(t *testing.T) {
	withEnabled(t, false, func() {
		st := NewStage("test.stage.off", "test.stage.off.seconds")
		h := H("test.stage.off.seconds", LatencyBuckets)
		spans := record(t, func() {
			sp := st.Start(trace.Root)
			sp.End()
		})
		if _, ok := spans["test.stage.off"]; !ok || h.Count() != 0 {
			t.Errorf("metrics off, tracing on: spans %v, histogram count %d", spans, h.Count())
		}

		sp := st.Start(trace.Root)
		if sp.Ctx() != trace.Root {
			t.Error("inert stage span hands out a non-Root ctx")
		}
		sp.SetAttr("k", "v")
		sp.End()
		if h.Count() != 0 || h.Sum() != 0 {
			t.Errorf("both gates off: histogram recorded %d/%g", h.Count(), h.Sum())
		}
	})
}
