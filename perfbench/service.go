package main

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
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/par"
)

const (
	// serviceStimuli generated stimuli × the extended catalogue, one unit
	// per cell, make one service campaign of ~104 cells.
	serviceStimuli = 8
	// serviceClients closed-loop testers share the server (nproc).
	serviceClients = 2
	// The clients meet every segmentCampaigns campaigns so the server is
	// idle while serviceRefSlices reference slices time the host (see
	// calibrate.go). Within a segment each client submits its next
	// campaign as soon as its last one ends; only the first campaign of a
	// segment finds the queue empty, so the p50s still measure waiting
	// behind the other tester.
	segmentCampaigns = 4
	serviceRefSlices = 3
)

// serviceCkpt is an in-process bistd: fleet.NewServer + Handler behind an
// httptest loopback server, checkpointing every finished cell to a fresh
// directory. serviceClients closed-loop clients each POST a distinct-seed
// wide grid, follow /stream to the terminal state and GET /matrix, then
// submit their next campaign.
type serviceCkpt struct {
	seed   int64
	srv    *fleet.Server
	hs     *httptest.Server
	client *http.Client
	dir    string
	specs  map[int]campaignInput
	probe  *probeSet
	// lastRuns is the latest pass's campaigns, for the per-layer metrics.
	lastRuns []*campaignRun
}

// campaignInput is one generated submission and its locally built plan,
// against which the served matrix is checked.
type campaignInput struct {
	spec fleet.Spec
	body []byte
	plan *campaign.Plan
}

func setupServiceCkpt(seed int64, lots int, workDir string) (session, error) {
	w := &serviceCkpt{seed: seed, specs: map[int]campaignInput{}}
	if err := w.generate(0, lots); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "ckpt-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	// CheckpointEvery 1 is the bistd default: every finished cell rewrites
	// the campaign's checkpoint.
	w.srv, err = fleet.NewServer(fleet.Config{CheckpointDir: dir, CheckpointEvery: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.hs = httptest.NewServer(w.srv.Handler(false))
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}}
	// Fixed warm-up: one small campaign through the whole HTTP path.
	in, err := newCampaignInput("warm-up", grid(0, "warm-up", 0, 1, 1))
	if err != nil {
		w.close()
		return nil, err
	}
	if r := w.runCampaign(in, nil); len(r.wrong) > 0 || r.failed > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up campaign failed: %v %v", r.failures, r.wrong)
	}
	return w, nil
}

func newCampaignInput(name string, g campaign.Grid) (campaignInput, error) {
	spec := fleet.Spec{Name: name, Grid: g}
	body, err := json.Marshal(spec)
	if err != nil {
		return campaignInput{}, err
	}
	p, err := campaign.NewPlan(g)
	if err != nil {
		return campaignInput{}, err
	}
	return campaignInput{spec: spec, body: body, plan: p}, nil
}

func (w *serviceCkpt) generate(first, n int) error {
	for i := first; i < first+n; i++ {
		if _, ok := w.specs[i]; ok {
			continue
		}
		in, err := newCampaignInput(fmt.Sprintf("bench-%d", i), grid(w.seed, "service-ckpt", i, serviceStimuli, 1))
		if err != nil {
			return err
		}
		w.specs[i] = in
	}
	return nil
}

// campaignRun is what one client saw of one campaign.
type campaignRun struct {
	id                      string
	units, attempted        int
	failed, agree, rejected int
	cells                   int
	unitMS                  []float64
	campaignS, firstMS      float64
	submitMS, queueMS       float64
	execS, matrixMS         float64
	cellGapMS               []float64
	streamBytes             int
	matrix                  []byte
	verdicts                []campaign.UnitVerdict
	failures, wrong         []string
}

// streamLine is the union of the NDJSON event shapes bistd streams.
type streamLine struct {
	Type    string
	Verdict campaign.UnitVerdict
	Cell    campaign.CellResult
	Status  fleet.Status
}

// runCampaign submits one campaign and follows it to the end: POST,
// /stream to the terminal state line, GET /matrix. Times are taken as the
// client sees them.
func (w *serviceCkpt) runCampaign(in campaignInput, tr *tracer) *campaignRun {
	r := &campaignRun{}
	shouldFail := map[string]bool{}
	for _, c := range in.plan.Cells {
		shouldFail[c.Fault.Name] = c.Fault.ShouldFail
	}
	t0 := time.Now()
	r.attempted++
	hp := tr.begin("fleet.post", 0, in.spec.Name)
	resp, err := w.client.Post(w.hs.URL+"/campaigns", "application/json", bytes.NewReader(in.body))
	var st fleet.Status
	if err == nil {
		err = decodeStatus(resp, http.StatusCreated, &st)
	}
	tr.end(hp)
	r.submitMS = ms(time.Since(t0))
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: submit: %v", in.spec.Name, err))
		return r
	}
	r.id = st.ID

	r.attempted++
	hs := tr.begin("fleet.stream", 0, r.id)
	var (
		cells     []campaign.CellResult
		state     string
		runningAt time.Time
		unitAt    []time.Time
		unitCell  []int
	)
	cellIndex := map[string]int{}
	for i, c := range in.plan.Cells {
		cellIndex[c.Key()] = i
	}
	err = w.get("/campaigns/"+r.id+"/stream", func(body io.Reader) error {
		br := bufio.NewReader(body)
		var tRun, lastCell time.Time
		sawUnit := false
		for {
			line, rerr := br.ReadBytes('\n')
			now := time.Now()
			r.streamBytes += len(line)
			if len(bytes.TrimSpace(line)) > 0 {
				var ev streamLine
				if err := json.Unmarshal(line, &ev); err != nil {
					return fmt.Errorf("stream line: %w", err)
				}
				switch ev.Type {
				case "state":
					state = ev.Status.State
					switch state {
					case fleet.StateRunning:
						tRun, lastCell, runningAt = now, now, now
						r.queueMS = ms(now.Sub(t0))
					case fleet.StateDone, fleet.StateFailed, fleet.StateInterrupted:
						r.campaignS = now.Sub(t0).Seconds()
						r.execS = now.Sub(tRun).Seconds()
					}
				case "unit":
					v := ev.Verdict
					if !sawUnit {
						sawUnit = true
						r.firstMS = ms(now.Sub(t0))
					}
					unitAt = append(unitAt, now)
					unitCell = append(unitCell, cellIndex[v.Stimulus+"\x00"+v.Fault])
					r.attempted++
					if v.Err != "" {
						r.failed++
						r.failures = append(r.failures, fmt.Sprintf("%s: unit %s/%s: %s", r.id, v.Stimulus, v.Fault, v.Err))
						break
					}
					r.units++
					if v.Pass != shouldFail[v.Fault] {
						r.agree++
					}
					r.verdicts = append(r.verdicts, v)
				case "cell":
					r.cellGapMS = append(r.cellGapMS, ms(now.Sub(lastCell)))
					lastCell = now
					cells = append(cells, ev.Cell)
					r.rejected += ev.Cell.Rejected
				}
			}
			if rerr == io.EOF {
				return nil
			}
			if rerr != nil {
				return rerr
			}
		}
	})
	tr.end(hs)
	// Per-unit latency: every cell holds one unit, and the server's
	// workers take cells in plan order from a FIFO queue, so cell k starts
	// when the server goes running (k < workers) or when the verdict
	// k-workers arrives. A unit's latency runs from its cell's start to
	// its verdict, as on campaign-lot it runs from the previous verdict on
	// the same goroutine.
	workers := par.Workers()
	for j, at := range unitAt {
		start := runningAt
		if k := unitCell[j] - workers; k >= 0 && k < len(unitAt) {
			start = unitAt[k]
		}
		r.unitMS = append(r.unitMS, ms(at.Sub(start)))
	}
	if err != nil || state != fleet.StateDone {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: stream ended in state %q: %v", r.id, state, err))
		return r
	}
	r.cells = len(cells)

	r.attempted++
	tm := time.Now()
	hm := tr.begin("fleet.matrix", 0, r.id)
	err = w.get("/campaigns/"+r.id+"/matrix", func(body io.Reader) error {
		var rerr error
		r.matrix, rerr = io.ReadAll(body)
		return rerr
	})
	tr.end(hm)
	r.matrixMS = ms(time.Since(tm))
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: matrix: %v", r.id, err))
		return r
	}
	// The fold of the streamed cells must be the served matrix, byte for
	// byte.
	want, err := in.plan.Fold(cells).MarshalCanonical()
	if err != nil || !bytes.Equal(want, r.matrix) {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: Plan.Fold of the streamed cells differs from /matrix", r.id))
	}
	if r.cells != len(in.plan.Cells) {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: streamed %d cells, plan has %d", r.id, r.cells, len(in.plan.Cells)))
	}
	return r
}

// get issues one GET and hands the body of a 200 response to read.
func (w *serviceCkpt) get(path string, read func(io.Reader) error) error {
	resp, err := w.client.Get(w.hs.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return read(resp.Body)
}

func decodeStatus(resp *http.Response, want int, st *fleet.Status) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, st)
}

func (w *serviceCkpt) pass(first, n int, tr *tracer) (*outcome, error) {
	if err := w.generate(first, n); err != nil {
		return nil, err
	}
	o := newOutcome()
	for i := first; i < first+n; i++ {
		o.inputs.Write(w.specs[i].body)
	}
	runs := make([]*campaignRun, n)
	o.host.sample(serviceRefSlices)
	start, paused := time.Now(), time.Duration(0)
	for seg := 0; seg < n; seg += segmentCampaigns {
		end := min(seg+segmentCampaigns, n)
		var wg sync.WaitGroup
		for c := 0; c < serviceClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := seg + c; k < end; k += serviceClients {
					runs[k] = w.runCampaign(w.specs[first+k], tr)
				}
			}(c)
		}
		wg.Wait()
		paused += o.host.sample(serviceRefSlices)
	}
	o.wall = time.Since(start) - paused
	for k, r := range runs {
		o.lots++
		o.units += r.units
		o.attempted += r.attempted
		o.failed += r.failed
		o.agree += r.agree
		o.rejected += r.rejected
		o.cells += r.cells
		o.wrong = append(o.wrong, r.wrong...)
		o.failures = append(o.failures, r.failures...)
		o.unitMS = append(o.unitMS, r.unitMS...)
		o.campaignS = append(o.campaignS, r.campaignS)
		o.firstMS = append(o.firstMS, r.firstMS)
		o.outputs.Write(r.matrix)
		if tr != nil && k == 0 && r.failed == 0 && len(r.wrong) == 0 {
			vs := map[string]campaign.UnitVerdict{}
			for _, v := range r.verdicts {
				vs[verdictKey(v)] = v
			}
			w.probe = &probeSet{plan: w.specs[first].plan, verdicts: vs}
		}
	}
	w.lastRuns = runs
	return o, nil
}

func (w *serviceCkpt) layers(o *outcome, tr *tracer, snap *obs.Snapshot, m metrics) error {
	runs := w.lastRuns
	var submit, queue, exec, matrix, gaps []float64
	ckptMB, streamKB := 0.0, 0.0
	for _, r := range runs {
		submit = append(submit, r.submitMS)
		queue = append(queue, r.queueMS)
		exec = append(exec, r.execS)
		matrix = append(matrix, r.matrixMS)
		gaps = append(gaps, r.cellGapMS...)
		streamKB += float64(r.streamBytes) / 1024
		// Computed, not measured: each of the campaign's cells rewrote a
		// checkpoint holding the cells done so far, plus one final
		// write, so the bytes written are ~final size × (cells+1)/2 +
		// final size.
		fi, err := os.Stat(filepath.Join(w.dir, r.id+".ckpt.json"))
		if err != nil {
			return err
		}
		size := float64(fi.Size())
		ckptMB += (size*float64(r.cells+1)/2 + size) / 1e6
	}
	nc := float64(len(runs))
	for _, q := range []struct {
		name string
		xs   []float64
		unit string
	}{
		{"fleet.submit_ms_p50", submit, "ms"},
		{"fleet.queue_wait_ms_p50", queue, "ms"},
		{"fleet.exec_s_p50", exec, "s"},
		{"fleet.cell_gap_ms_p50", gaps, "ms"},
		{"fleet.matrix_ms_p50", matrix, "ms"},
	} {
		v, err := percentile(q.xs, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		m.set(q.name, v, q.unit)
	}
	m.set("fleet.checkpoint_writes_per_campaign", float64(snap.Counters["fleet.checkpoint.writes"])/nc, "count")
	m.set("fleet.checkpoint_mb_per_campaign", ckptMB/nc, "computed_MB")
	m.set("fleet.stream_kb_per_campaign", streamKB/nc, "KB")
	m.set("campaign.units_evaluated_per_cell", float64(o.units+o.failed)/float64(o.cells), "count")
	return w.probe.run(tr, m)
}

func (w *serviceCkpt) close() error {
	var err error
	if w.hs != nil {
		w.hs.Close()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = w.srv.Shutdown(ctx)
		cancel()
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
