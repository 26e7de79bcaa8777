package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

func testContext(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// fleetGrid is the test campaign: two stimuli against two catalogue faults
// (plus the implicit healthy row) → 6 cells, small enough to run in
// milliseconds but wide enough to shard, interrupt and resume.
func fleetGrid() campaign.Grid {
	return campaign.Grid{
		Stimuli: []campaign.StimulusSpec{
			{
				Name:          "qpsk-tiny",
				Constellation: "QPSK",
				PRBSOrder:     7,
				PRBSSeed:      0x55,
				BurstLen:      64,
				Mask:          "wideband-qpsk-15M",
			},
			{
				Name:          "qam16-tiny",
				Constellation: "16QAM",
				PRBSOrder:     7,
				PRBSSeed:      0x2B,
				BurstLen:      64,
				Mask:          "wideband-qpsk-15M",
			},
		},
		Faults:         []string{"pa-compression", "dead-gain"},
		Units:          2,
		Seed:           42,
		Scale:          0.1,
		YieldThreshold: 0.5,
	}
}

// singleProcessMatrix is the reference bytes every fleet path must match.
func singleProcessMatrix(t *testing.T, g campaign.Grid) []byte {
	t.Helper()
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testContext(5 * time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func submitAndWait(t *testing.T, s *Server, spec Spec) *Campaign {
	t.Helper()
	c, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := c.WaitState(30 * time.Second)
	if st.State != StateDone {
		t.Fatalf("campaign ended %s (%s), want done", st.State, st.Error)
	}
	return c
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Shard
		ok   bool
	}{
		{"0/1", Shard{0, 1}, true},
		{"2/3", Shard{2, 3}, true},
		{"1/2", Shard{1, 2}, true},
		{"10/12", Shard{10, 12}, true},
		{"3/3", Shard{}, false},
		{"-1/2", Shard{}, false},
		{"0/0", Shard{}, false},
		{"banana", Shard{}, false},
		// The whole string must parse: no trailing input, no padding.
		{"1/2/3", Shard{}, false},
		{"1/2xyz", Shard{}, false},
		{" 1/2", Shard{}, false},
		{"1/2 ", Shard{}, false},
		{"1 /2", Shard{}, false},
		{"1/2\n", Shard{}, false},
		// Only the canonical decimal spelling is accepted.
		{"+1/2", Shard{}, false},
		{"01/2", Shard{}, false},
		{"1/02", Shard{}, false},
		{"0x1/2", Shard{}, false},
		{"1/99999999999999999999", Shard{}, false},
		{"", Shard{}, false},
		{"/", Shard{}, false},
		{"1/", Shard{}, false},
		{"/2", Shard{}, false},
		{"1", Shard{}, false},
	} {
		got, err := ParseShard(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseShard(%q) accepted", tc.in)
		}
	}
}

// FuzzParseShard: ParseShard never panics, and any accepted value prints
// back through the "i/n" form as exactly its input.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{"0/1", "2/3", "1/2/3", "1/2xyz", " 1/2", "01/2", "-1/2", "+1/2", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShard(s)
		if err != nil {
			return
		}
		if back := fmt.Sprintf("%d/%d", sh.Index, sh.Count); back != s {
			t.Fatalf("ParseShard(%q) = %+v, which prints as %q", s, sh, back)
		}
		if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
			t.Fatalf("ParseShard(%q) accepted out-of-range %+v", s, sh)
		}
	})
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"Name":"x","Bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{} {}`)); err == nil {
		t.Error("trailing data accepted")
	}
}

// TestEndToEndHTTP drives the whole HTTP surface: submit → idempotent
// resubmit → stream replay → matrix/checkpoint/manifest/trace, and pins
// the served matrix to the single-process bytes.
func TestEndToEndHTTP(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)

	s := newTestServer(t, Config{CheckpointDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	body, err := json.Marshal(Spec{Name: "e2e", Grid: g, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.CellsTotal != 6 {
		t.Fatalf("submit status = %+v, want an ID and 6 cells", st)
	}

	// Identical resubmission must return the same campaign, not fork one.
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st2 Status
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st2.ID != st.ID {
		t.Errorf("resubmit: %s id=%s, want 200 with id %s", resp.Status, st2.ID, st.ID)
	}

	// The stream replays history and follows the campaign to its end.
	streamResp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type %q", ct)
	}
	var unitEvents, cellEvents int
	var finalState Status
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type   string
			Status Status
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "unit":
			unitEvents++
		case "cell":
			cellEvents++
		case "state":
			finalState = ev.Status
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if finalState.State != StateDone {
		t.Fatalf("stream ended in state %s (%s)", finalState.State, finalState.Error)
	}
	if cellEvents != 6 || unitEvents != 6*g.Units {
		t.Errorf("stream carried %d cell / %d unit events, want 6 / %d", cellEvents, unitEvents, 6*g.Units)
	}
	if finalState.UnitsRun != int64(6*g.Units) {
		t.Errorf("final status ran %d units, want %d", finalState.UnitsRun, 6*g.Units)
	}

	got := getOK(t, ts.URL+"/campaigns/"+st.ID+"/matrix")
	if !bytes.Equal(got, want) {
		t.Error("served matrix differs from single-process Grid.Run bytes")
	}

	ckB := getOK(t, ts.URL+"/campaigns/"+st.ID+"/checkpoint")
	ck, err := campaign.ParseCheckpoint(ckB)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Cells) != 6 {
		t.Errorf("served checkpoint has %d cells, want 6", len(ck.Cells))
	}

	man := getOK(t, ts.URL+"/campaigns/"+st.ID+"/manifest")
	if !bytes.Contains(man, []byte("bistd")) {
		t.Errorf("manifest does not name the tool: %s", man)
	}

	tr := getOK(t, ts.URL+"/campaigns/"+st.ID+"/trace")
	if !bytes.Contains(tr, []byte("traceEvents")) {
		t.Error("trace is not Chrome JSON")
	}

	list := getOK(t, ts.URL+"/campaigns")
	var all []Status
	if err := json.Unmarshal(list, &all); err != nil || len(all) != 1 {
		t.Errorf("list = %s (%v), want one campaign", list, err)
	}

	if r, err := http.Get(ts.URL + "/campaigns/nope"); err == nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown campaign: %s, want 404", r.Status)
		}
	}
	if !bytes.Contains(getOK(t, ts.URL+"/healthz"), []byte("ok")) {
		t.Error("healthz not ok")
	}
}

func getOK(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data
}

// TestResumeFromCheckpointByteIdentity is the deterministic half of the
// kill-and-resume contract: a server finding a partial checkpoint on disk
// skips the finished cells and still produces the single-process bytes.
func TestResumeFromCheckpointByteIdentity(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "resume", Grid: g}

	// Learn the campaign's content-hash ID from a throwaway server.
	probe := newTestServer(t, Config{})
	pc, _, err := probe.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := pc.ID

	// Fabricate the partial state a killed server would have left: the
	// first half of the cells, completed and checkpointed.
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := campaign.NewCheckpoint(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const partial = 3
	for i := 0; i < partial; i++ {
		r, err := p.RunCell(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck.Add(r)
	}
	b, err := ck.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id+".ckpt.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{CheckpointDir: dir})
	c := submitAndWait(t, s, spec)
	st := c.status()
	if st.CellsResumed != partial {
		t.Errorf("resumed %d cells, want %d", st.CellsResumed, partial)
	}
	c.mu.Lock()
	got := c.matrix
	c.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Error("resumed matrix differs from single-process bytes")
	}
}

// TestShutdownInterruptsAndResumes kills a server mid-campaign and
// resumes on a fresh one sharing the checkpoint dir: whatever progress
// survived the drain is skipped, and the final matrix is byte-identical.
func TestShutdownInterruptsAndResumes(t *testing.T) {
	g := fleetGrid()
	g.Units = 4 // slow the cells enough for the drain to land mid-campaign
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "kill", Grid: g}
	dir := t.TempDir()

	s1, err := NewServer(Config{CheckpointDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first completed cell, then pull the plug.
	deadline := time.Now().Add(30 * time.Second)
	for c1.status().CellsDone == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := testContext(30 * time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	st1 := c1.status()
	if st1.State != StateInterrupted && st1.State != StateDone {
		t.Fatalf("after shutdown campaign is %s (%s)", st1.State, st1.Error)
	}

	// The checkpoint on disk carries exactly the completed cells.
	data, err := os.ReadFile(filepath.Join(dir, c1.ID+".ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := campaign.ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Cells) != st1.CellsDone {
		t.Errorf("checkpoint has %d cells, status says %d done", len(ck.Cells), st1.CellsDone)
	}

	// Fresh process, same dir: resubmission resumes and finishes.
	s2 := newTestServer(t, Config{CheckpointDir: dir})
	c2 := submitAndWait(t, s2, spec)
	st2 := c2.status()
	if st2.CellsResumed != st1.CellsDone {
		t.Errorf("resumed %d cells, interrupted run had completed %d", st2.CellsResumed, st1.CellsDone)
	}
	if st1.State == StateInterrupted && st2.CellsResumed == 0 {
		t.Error("interrupted run left progress but resume skipped nothing")
	}
	c2.mu.Lock()
	got := c2.matrix
	c2.mu.Unlock()
	if !bytes.Equal(got, want) {
		t.Error("killed-and-resumed matrix differs from single-process bytes")
	}
}

// TestShardMergeEqualsSingleProcess is the multi-process contract at the
// service level, pinned at several worker counts: two shard servers'
// checkpoints merge into bytes identical to the unsharded run.
func TestShardMergeEqualsSingleProcess(t *testing.T) {
	g := fleetGrid()
	want := singleProcessMatrix(t, g)
	spec := Spec{Name: "sharded", Grid: g}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var cks []*campaign.Checkpoint
			for idx := 0; idx < 2; idx++ {
				dir := t.TempDir()
				s := newTestServer(t, Config{
					CheckpointDir: dir,
					Shard:         Shard{Index: idx, Count: 2},
					Workers:       workers,
				})
				c := submitAndWait(t, s, spec)
				st := c.status()
				if st.ShardIndex != idx || st.ShardCount != 2 {
					t.Fatalf("status shard %d/%d, want %d/2", st.ShardIndex, st.ShardCount, idx)
				}
				data, err := os.ReadFile(filepath.Join(dir, c.ID+".ckpt.json"))
				if err != nil {
					t.Fatal(err)
				}
				ck, err := campaign.ParseCheckpoint(data)
				if err != nil {
					t.Fatal(err)
				}
				cks = append(cks, ck)
			}
			m, err := campaign.MergeCheckpoints(g, cks...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("merged shard matrices differ from single-process bytes")
			}
		})
	}
}

// TestSubmitRejectsBadGridAndPoisonCheckpoint covers the refusal paths: an
// invalid grid 400s, and a checkpoint whose content does not validate
// refuses the submission instead of quietly discarding it.
func TestSubmitRejectsBadGridAndPoisonCheckpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	bad := fleetGrid()
	bad.Stimuli[0].Constellation = "NOPE"
	if _, _, err := s.Submit(Spec{Grid: bad}); err == nil {
		t.Error("invalid grid accepted")
	}

	// Poisoned checkpoint: right name, wrong grid hash.
	g := fleetGrid()
	spec := Spec{Name: "poison", Grid: g}
	probe := newTestServer(t, Config{})
	pc, _, err := probe.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	poison := []byte(`{"GridHash":"deadbeefdeadbeef","ShardIndex":0,"ShardCount":1,"Cells":[]}`)
	if err := os.WriteFile(filepath.Join(dir, pc.ID+".ckpt.json"), poison, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{CheckpointDir: dir})
	if _, _, err := s2.Submit(spec); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Errorf("poisoned checkpoint accepted: %v", err)
	}
}

// TestAdmissionQueueBounded pins the 503 path: the admission queue is a
// fixed buffer, and overflow refuses rather than queues unboundedly.
func TestAdmissionQueueBounded(t *testing.T) {
	s := newTestServer(t, Config{QueueDepth: 1})
	// Stall the executor with a real campaign, then overfill admission
	// with distinct specs (distinct names → distinct IDs).
	specs := make([]Spec, 3)
	for i := range specs {
		specs[i] = Spec{Name: fmt.Sprintf("q%d", i), Grid: fleetGrid()}
	}
	var sawFull bool
	for _, sp := range specs {
		if _, _, err := s.Submit(sp); err != nil {
			if err != errQueueFull {
				t.Fatalf("unexpected submit error: %v", err)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Log("admission queue drained faster than the test submitted; bound not exercised")
	}
}
