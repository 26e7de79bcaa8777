package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/eventlog"
)

// getStatus fetches a URL without asserting the status code (getOK fatals
// on non-200, which health probes legitimately return).
func getStatus(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitHealthState polls until the watchdog reports the wanted state or the
// deadline passes, returning the last report either way.
func waitHealthState(t *testing.T, s *Server, want string, timeout time.Duration) Health {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var h Health
	for time.Now().Before(deadline) {
		h = s.Health()
		if h.State == want {
			return h
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("health never reached %q; last report: %+v", want, h)
	return h
}

// TestWatchdogStallAndRecover pins the stall detector end to end: a job
// wedged on the single worker starves a running campaign, the watchdog
// flips /healthz to stalled (503) with the no_completion cause, and once
// the wedge releases the campaign finishes and health returns to ok.
func TestWatchdogStallAndRecover(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := s.StartWatchdog(WatchdogConfig{Interval: 5 * time.Millisecond, StallIntervals: 2})
	defer w.Close()

	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	// Idle fleet: healthy.
	waitHealthState(t, s, HealthOK, 2*time.Second)
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("idle /healthz = %d, want 200", code)
	}

	// Wedge the lone worker, then submit a campaign: its cells queue
	// behind the block and the completed-job count stops moving.
	block := make(chan struct{})
	if !s.queue.Submit(func() { <-block }) {
		t.Fatal("wedge job refused")
	}
	c, _, err := s.Submit(Spec{Name: "stalled", Grid: fleetGrid()})
	if err != nil {
		t.Fatal(err)
	}

	h := waitHealthState(t, s, HealthStalled, 5*time.Second)
	found := false
	for _, cause := range h.Causes {
		if cause == CauseNoCompletion {
			found = true
		}
	}
	if !found {
		t.Errorf("stalled causes = %v, want %s", h.Causes, CauseNoCompletion)
	}
	if h.RunningCampaign != c.ID {
		t.Errorf("stalled report names campaign %q, want %q", h.RunningCampaign, c.ID)
	}
	code, body := getStatus(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("stalled /healthz = %d, want 503", code)
	}
	var rep Health
	if err := json.Unmarshal(body, &rep); err != nil || rep.State != HealthStalled {
		t.Errorf("stalled /healthz body = %s (err %v)", body, err)
	}

	// Release: the campaign drains and health recovers.
	close(block)
	if st := c.WaitState(30 * time.Second); st.State != StateDone {
		t.Fatalf("campaign ended %s after release, want done", st.State)
	}
	waitHealthState(t, s, HealthOK, 5*time.Second)
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("recovered /healthz = %d, want 200", code)
	}
}

// TestHealthzDrainingDuringShutdown pins the drain contract: the moment
// Shutdown begins, /healthz serves 503 {"state":"draining"} — even while
// an in-flight campaign is still finishing.
func TestHealthzDrainingDuringShutdown(t *testing.T) {
	s, err := NewServer(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	// Hold the worker so a campaign is genuinely in flight during the
	// drain, then let Shutdown run concurrently.
	block := make(chan struct{})
	if !s.queue.Submit(func() { <-block }) {
		t.Fatal("wedge job refused")
	}
	if _, _, err := s.Submit(Spec{Name: "draining", Grid: fleetGrid()}); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := testContext(30 * time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The draining flag flips before the drain waits, so this must be
	// visible promptly while the wedge still holds the campaign open.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getStatus(t, ts.URL+"/healthz")
		if code == http.StatusServiceUnavailable {
			var rep Health
			if err := json.Unmarshal(body, &rep); err != nil || rep.State != HealthDraining {
				t.Errorf("draining /healthz body = %s (err %v)", body, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never reported draining during shutdown")
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(block)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Drained and stopped: still 503, still draining.
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown /healthz = %d, want 503", code)
	}
}

// TestWatchdogQueueSaturation pins the degraded path: a buffer that stays
// full (without a stalled campaign) is a warning, not an outage.
func TestWatchdogQueueSaturation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := s.StartWatchdog(WatchdogConfig{Interval: 5 * time.Millisecond, StallIntervals: 2})
	defer w.Close()

	// Wedge the worker and fill the buffer completely.
	block := make(chan struct{})
	defer close(block)
	if !s.queue.Submit(func() { <-block }) {
		t.Fatal("wedge job refused")
	}
	for i := 0; i < s.queue.Cap(); i++ {
		if !s.queue.Submit(func() {}) {
			t.Fatal("fill job refused")
		}
	}

	h := waitHealthState(t, s, HealthDegraded, 5*time.Second)
	found := false
	for _, cause := range h.Causes {
		if cause == CauseQueueSaturated {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded causes = %v, want %s", h.Causes, CauseQueueSaturated)
	}
	// Degraded still serves traffic: 200 from the handler's point of view.
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("degraded /healthz = %d, want 200", code)
	}
}

// TestCheckpointWriteFailureIsVisible injects a write fault — a directory
// squatting on the checkpoint's temp path, which defeats WriteFile even
// for root — and checks that the failure surfaces as a
// fleet.checkpoint.error event and a degraded /healthz with the
// checkpoint_failed cause, that the campaign still finishes with the
// single-process matrix bytes, and that the next successful write clears
// the cause.
func TestCheckpointWriteFailureIsVisible(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "ckpt-fault", Grid: g}
	id, err := campaignID(spec, Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tmp := filepath.Join(dir, id+".ckpt.json.tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	prevLog := eventlog.Set(slog.New(eventlog.NewJSONHandler(&logBuf)))
	defer eventlog.Set(prevLog)

	s := newTestServer(t, Config{CheckpointDir: dir})
	w := s.StartWatchdog(WatchdogConfig{Interval: 5 * time.Millisecond})
	defer w.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	c := submitAndWait(t, s, spec)
	drainEvents(c)
	c.mu.Lock()
	got := c.matrix
	c.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Error("matrix differs from single-process bytes after checkpoint failures")
	}

	// checkpoint_stale may ride along while the campaign is still marked
	// running: with every write failing, the last success is its start.
	h := waitHealthState(t, s, HealthDegraded, 5*time.Second)
	found := false
	for _, cause := range h.Causes {
		found = found || cause == CauseCheckpointFailed
	}
	if !found {
		t.Errorf("degraded causes = %v, want %s", h.Causes, CauseCheckpointFailed)
	}
	code, body := getStatus(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(CauseCheckpointFailed)) {
		t.Errorf("/healthz = %d %s, want 200 naming %s", code, body, CauseCheckpointFailed)
	}

	// Clear the fault: the next write succeeds and health recovers.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	s.writeCheckpoint(c)
	waitHealthState(t, s, HealthOK, 5*time.Second)
	if _, err := os.Stat(filepath.Join(dir, id+".ckpt.json")); err != nil {
		t.Errorf("checkpoint not written after the fault cleared: %v", err)
	}

	w.Close()
	eventlog.Set(prevLog)
	var events int
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line not JSON: %v\n%s", err, line)
		}
		if ev["event"] != "fleet.checkpoint.error" {
			continue
		}
		events++
		if ev["campaign"] != id || ev["step"] != "write" || ev["error"] == "" {
			t.Errorf("checkpoint error event = %v", ev)
		}
	}
	if events == 0 {
		t.Errorf("no fleet.checkpoint.error event in the log:\n%s", logBuf.String())
	}
}
