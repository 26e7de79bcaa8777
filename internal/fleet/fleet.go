// Package fleet is the production-scale face of the BIST: a long-running
// campaign service that accepts test-campaign specs over HTTP/JSON, shards
// their (stimulus, fault, unit) cells across a bounded job queue on top of
// internal/par, streams per-unit verdicts and running aggregate yield as
// NDJSON while a campaign executes, and exposes the obs/trace/provenance
// layer per campaign. Determinism is the load-bearing contract: every cell
// result is a pure function of the campaign's content (content-derived
// SplitMix64 seeds, index-free), so a campaign can be checkpointed and
// resumed after a kill, or split across `-shard i/n` processes and merged,
// and the final DetectionMatrix is byte-identical to the uninterrupted
// single-process run.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/obs/provenance"
	"repro/internal/obs/trace"
	"repro/internal/par"
)

// Fleet instruments: campaign admission and outcome volume plus the cell
// throughput the service actually sustains. The par.queue.* gauges
// alongside these carry backlog depth and worker occupancy.
var (
	mSubmitted   = obs.C("fleet.campaigns.submitted")
	mDone        = obs.C("fleet.campaigns.done")
	mInterrupted = obs.C("fleet.campaigns.interrupted")
	mFailed      = obs.C("fleet.campaigns.failed")
	mCellsRun    = obs.C("fleet.cells.run")
	mCellsResume = obs.C("fleet.cells.resumed")
	mCkptWrites  = obs.C("fleet.checkpoint.writes")
	// mYieldPPM tracks the most recently active campaign's lifetime yield
	// in parts per million (gauges are integral; ppm keeps 6 digits).
	mYieldPPM = obs.G("fleet.yield.ppm")
)

// Spec is what a client submits: the campaign content plus service knobs.
// The grid carries the whole test definition — stimuli, fault selection,
// lot size (Units), seed, scale, yield threshold.
type Spec struct {
	// Name optionally labels the campaign in listings; it does not affect
	// the campaign's identity or results.
	Name string
	// Grid is the campaign definition (see campaign.Grid).
	Grid campaign.Grid
	// Trace requests a Perfetto trace of this campaign's execution,
	// downloadable from /campaigns/{id}/trace once the campaign ends.
	Trace bool
}

// ParseSpec decodes and validates a submission. Unknown fields are
// rejected — a typo in a fleet request must fail loudly.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fleet: parse spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("fleet: parse spec: trailing data")
	}
	return s, nil
}

// Shard is the process-wide partition a bistd instance owns: the strided
// slice index ∈ [0, Count) of every campaign's sorted cell list.
type Shard struct {
	Index int
	Count int
}

// ParseShard reads the CLI "i/n" form: the whole string must be two
// canonical decimal integers (no sign, space or leading zero) around one
// slash, so an accepted value prints back as exactly its input.
func ParseShard(s string) (Shard, error) {
	is, ns, ok := strings.Cut(s, "/")
	idx, okI := parseShardInt(is)
	cnt, okN := parseShardInt(ns)
	if !ok || !okI || !okN {
		return Shard{}, fmt.Errorf("fleet: shard %q: want i/n", s)
	}
	sh := Shard{Index: idx, Count: cnt}
	if sh.Count < 1 || sh.Index >= sh.Count {
		return Shard{}, fmt.Errorf("fleet: shard %d/%d out of range", sh.Index, sh.Count)
	}
	return sh, nil
}

// parseShardInt parses one canonical non-negative decimal integer.
func parseShardInt(s string) (int, bool) {
	if s == "" || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	v, err := strconv.Atoi(s)
	return v, err == nil
}

// Config tunes a Server.
type Config struct {
	// CheckpointDir, when non-empty, makes campaign progress durable:
	// completed cells are written there periodically and a matching
	// submission after a restart resumes from the file instead of
	// re-running finished cells.
	CheckpointDir string
	// CheckpointEvery is the number of completed cells between checkpoint
	// writes (default 1: every cell).
	CheckpointEvery int
	// Shard is this process's partition of every campaign (zero value:
	// the whole cell list).
	Shard Shard
	// QueueDepth bounds the campaign admission queue; submissions beyond
	// it are refused with 503 (default 16).
	QueueDepth int
	// Workers sets the cell-queue worker count (default par.Workers()).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 1
	}
	if c.Shard.Count < 1 {
		c.Shard = Shard{Index: 0, Count: 1}
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	return c
}

// Campaign states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateInterrupted = "interrupted"
	StateFailed      = "failed"
)

// Campaign is one admitted spec: its plan, progress, event stream and
// artifacts. All mutable fields are guarded by mu.
type Campaign struct {
	ID    string
	Spec  Spec
	Shard Shard

	plan     *campaign.Plan
	gridHash string
	shardIDs []int // plan cell indices this process owns
	events   *eventLog
	manifest provenance.Manifest

	mu            sync.Mutex
	state         string
	errMsg        string
	done          map[string]campaign.CellResult
	resumed       int
	unitsRun      int64
	unitsRejected int64
	unitsErrored  int64
	sinceCkpt     int
	matrix        []byte // canonical DetectionMatrix once done
	metricsSnap   []byte // obs snapshot taken when the campaign ended
	traceRec      *trace.Recording

	tel     *telemetry       // rolling-window SLO view, fed by OnCellDone
	telSnap *TelemetryReport // frozen at campaign end
}

// Status is the public view of a campaign, also embedded in stream
// events: progress counts plus the running aggregate yield over every
// unit the campaign has tested so far.
type Status struct {
	ID    string
	Name  string
	State string
	Error string
	// ShardIndex/ShardCount echo the process partition the campaign ran
	// under.
	ShardIndex int
	ShardCount int
	// CellsTotal is the number of cells this process owns; CellsDone how
	// many have results (CellsResumed of those came from a checkpoint).
	CellsTotal   int
	CellsDone    int
	CellsResumed int
	// UnitsRun/UnitsRejected/UnitsErrored aggregate every device verdict
	// so far; Yield is 1 - rejected/run (1 when nothing ran yet).
	UnitsRun      int64
	UnitsRejected int64
	UnitsErrored  int64
	Yield         float64
}

func (c *Campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:            c.ID,
		Name:          c.Spec.Name,
		State:         c.state,
		Error:         c.errMsg,
		ShardIndex:    c.Shard.Index,
		ShardCount:    c.Shard.Count,
		CellsTotal:    len(c.shardIDs),
		CellsDone:     len(c.done),
		CellsResumed:  c.resumed,
		UnitsRun:      c.unitsRun,
		UnitsRejected: c.unitsRejected,
		UnitsErrored:  c.unitsErrored,
		Yield:         1,
	}
	if c.unitsRun > 0 {
		st.Yield = 1 - float64(c.unitsRejected)/float64(c.unitsRun)
	}
	return st
}

// Server owns the campaign registry, the admission FIFO and the cell
// worker queue. Campaigns execute one at a time (cells fan out across the
// queue's workers): serial campaign execution is what makes the
// per-campaign trace recording and metrics snapshot well-defined, and a
// fleet scales by adding shard processes, not by interleaving campaigns
// inside one.
type Server struct {
	cfg Config

	mu    sync.Mutex
	camps map[string]*Campaign
	order []string

	queue  *par.Queue
	admit  chan *Campaign
	ctx    context.Context
	cancel context.CancelFunc
	execWG sync.WaitGroup

	// ckptMu serializes checkpoint writes: two workers finishing cells at
	// the same moment must not interleave on the shared temp file.
	ckptMu sync.Mutex

	// Health sampling state. draining flips the moment Shutdown begins so
	// /healthz turns away traffic before the drain completes; running and
	// lastCkptNanos are the watchdog's progress signals; ckptFailed holds
	// from a failed checkpoint write until the next one succeeds; watchdog
	// is the sampler itself, when one was started.
	draining      atomic.Bool
	running       atomic.Pointer[Campaign]
	lastCkptNanos atomic.Int64
	ckptFailed    atomic.Bool
	watchdog      atomic.Pointer[Watchdog]
}

// NewServer validates cfg, creates the checkpoint directory if requested,
// and starts the executor. Stop with Shutdown.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		camps:  map[string]*Campaign{},
		queue:  par.NewQueue(cfg.Workers, 0),
		admit:  make(chan *Campaign, cfg.QueueDepth),
		ctx:    ctx,
		cancel: cancel,
	}
	s.execWG.Add(1)
	go s.executor()
	return s, nil
}

// Submit admits a spec: builds its plan (validating the grid), derives the
// content-hash ID, loads any checkpoint, and enqueues it for execution.
// Submitting a spec whose ID is already registered returns the existing
// campaign (idempotent — a client retrying after a timeout must not fork a
// second run).
func (s *Server) Submit(spec Spec) (*Campaign, bool, error) {
	p, err := campaign.NewPlan(spec.Grid)
	if err != nil {
		return nil, false, err
	}
	gridHash, err := p.GridHash()
	if err != nil {
		return nil, false, err
	}
	id, err := campaignID(spec, s.cfg.Shard)
	if err != nil {
		return nil, false, err
	}
	shardIDs, err := p.ShardIndices(s.cfg.Shard.Index, s.cfg.Shard.Count)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	if c, ok := s.camps[id]; ok {
		s.mu.Unlock()
		return c, false, nil
	}
	c := &Campaign{
		ID:       id,
		Spec:     spec,
		Shard:    s.cfg.Shard,
		plan:     p,
		gridHash: gridHash,
		shardIDs: shardIDs,
		events:   newEventLog(),
		state:    StateQueued,
		done:     map[string]campaign.CellResult{},
		tel:      newTelemetry(),
	}
	p.OnCellDone = c.noteTelemetry
	name := spec.Name
	if name == "" {
		name = "campaign-" + id
	}
	man, err := provenance.Collect("bistd", name, spec.Grid.Seed, spec)
	if err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	c.manifest = man
	s.camps[id] = c
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.loadCheckpoint(c); err != nil {
		// A bad checkpoint must not silently discard completed work or
		// poison the matrix: refuse the submission.
		s.mu.Lock()
		delete(s.camps, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		return nil, false, err
	}

	select {
	case s.admit <- c:
	default:
		s.mu.Lock()
		delete(s.camps, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		if eventlog.On() {
			eventlog.Emit("fleet.admit.reject",
				slog.String("campaign", id),
				slog.String("name", spec.Name),
				slog.String("reason", "queue_full"))
		}
		return nil, false, errQueueFull
	}
	mSubmitted.Inc()
	if eventlog.On() {
		eventlog.Emit("fleet.admit",
			slog.String("campaign", c.ID),
			slog.String("name", spec.Name),
			slog.Int("shard_index", c.Shard.Index),
			slog.Int("shard_count", c.Shard.Count),
			slog.Int("cells", len(c.shardIDs)),
			slog.Int("resumed", c.resumedCount()))
	}
	c.emitState()
	return c, true, nil
}

// resumedCount reads the checkpoint-resumed cell count.
func (c *Campaign) resumedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// errQueueFull is surfaced as 503: the admission queue is a fixed-size
// buffer, not an unbounded backlog.
var errQueueFull = fmt.Errorf("fleet: admission queue full")

// Campaign returns a campaign by ID.
func (s *Server) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.camps[id]
	return c, ok
}

// Statuses lists every campaign in admission order.
func (s *Server) Statuses() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Campaign(id); ok {
			out = append(out, c.status())
		}
	}
	return out
}

// Shutdown drains the fleet: no new cells are scheduled, in-flight cells
// finish, the running campaign writes a final checkpoint and is marked
// interrupted (or done, if the drain raced its completion), queued
// campaigns are marked interrupted, and the executor exits. The context
// bounds how long to wait for in-flight work.
func (s *Server) Shutdown(ctx context.Context) error {
	// Flip /healthz to draining before anything else: a load balancer must
	// stop sending campaigns here while in-flight cells finish.
	s.draining.Store(true)
	if w := s.watchdog.Swap(nil); w != nil {
		w.Close()
	}
	s.cancel()
	execDone := make(chan struct{})
	go func() {
		s.execWG.Wait()
		s.queue.Close()
		close(execDone)
	}()
	select {
	case <-execDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: shutdown deadline exceeded with cells in flight: %w", ctx.Err())
	}
}

// executor is the single campaign loop: admit in FIFO order, run each
// campaign's cells over the worker queue, handle the drain signal.
func (s *Server) executor() {
	defer s.execWG.Done()
	for {
		select {
		case <-s.ctx.Done():
			// Drain: everything still queued is interrupted where it
			// stands (zero or resumed progress, all checkpointed).
			for {
				select {
				case c := <-s.admit:
					s.finishInterrupted(c)
				default:
					return
				}
			}
		case c := <-s.admit:
			s.runCampaign(c)
		}
	}
}

// runCampaign executes one campaign's shard partition cell by cell across
// the worker queue, checkpointing as results land.
func (s *Server) runCampaign(c *Campaign) {
	s.running.Store(c)
	defer s.running.Store(nil)
	// Baseline the checkpoint-age clock at campaign start so the watchdog
	// measures "since last write or start", not "since process boot".
	s.lastCkptNanos.Store(time.Now().UnixNano())
	c.setState(StateRunning, "")
	c.emitState()

	tracing := false
	if c.Spec.Trace {
		if err := trace.StartRecording(trace.Config{}); err == nil {
			tracing = true
		}
	}

	pending := make([]int, 0, len(c.shardIDs))
	doneKeys := c.doneKeys()
	for _, i := range c.shardIDs {
		if !doneKeys[c.plan.Cells[i].Key()] {
			pending = append(pending, i)
		}
	}

	var wg sync.WaitGroup
	interrupted := false
	for _, i := range pending {
		if s.ctx.Err() != nil {
			interrupted = true
			break
		}
		i := i
		wg.Add(1)
		ok := s.queue.Submit(func() {
			defer wg.Done()
			res, err := c.plan.RunCell(i, c.noteUnit)
			if err != nil {
				c.setState(StateFailed, err.Error())
				return
			}
			mCellsRun.Inc()
			s.noteCell(c, res)
		})
		if !ok {
			wg.Done()
			interrupted = true
			break
		}
	}
	wg.Wait()

	if tracing {
		if rec := trace.StopRecording(); rec != nil {
			rec.SetManifest(c.manifest)
			c.mu.Lock()
			c.traceRec = rec
			c.mu.Unlock()
		}
	}

	s.writeCheckpoint(c) // final checkpoint, regardless of cadence
	if snap, err := obs.MarshalSnapshot(); err == nil {
		c.mu.Lock()
		c.metricsSnap = snap
		c.mu.Unlock()
	}

	c.mu.Lock()
	state := c.state
	complete := len(c.done) == len(c.shardIDs)
	c.mu.Unlock()
	switch {
	case state == StateFailed:
		mFailed.Inc()
	case complete:
		if err := s.foldMatrix(c); err != nil {
			c.setState(StateFailed, err.Error())
			mFailed.Inc()
		} else {
			c.setState(StateDone, "")
			mDone.Inc()
		}
	case interrupted || s.ctx.Err() != nil:
		c.setState(StateInterrupted, "")
		mInterrupted.Inc()
	default:
		// Cells missing without a drain: their results were lost to cell
		// errors already recorded via StateFailed, or this is a logic
		// error worth failing loudly on.
		c.setState(StateFailed, "fleet: campaign ended with missing cells")
		mFailed.Inc()
	}
	c.freezeTelemetry()
	c.emitState()
	c.events.close()
}

// finishInterrupted handles campaigns still queued when the drain hit.
func (s *Server) finishInterrupted(c *Campaign) {
	s.writeCheckpoint(c)
	c.setState(StateInterrupted, "")
	mInterrupted.Inc()
	c.freezeTelemetry()
	c.emitState()
	c.events.close()
}

// foldMatrix builds and stores the canonical matrix from the completed
// partition. For an unsharded campaign this is the full detection matrix;
// for shard i/n it is the partition's fold, and the byte-identical full
// matrix comes from merging the shard checkpoints (bistd -merge).
func (s *Server) foldMatrix(c *Campaign) error {
	c.mu.Lock()
	cells := make([]campaign.CellResult, 0, len(c.done))
	for _, r := range c.done {
		cells = append(cells, r)
	}
	c.mu.Unlock()
	m := c.plan.Fold(cells)
	b, err := m.MarshalCanonical()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.matrix = b
	c.mu.Unlock()
	return nil
}

// noteUnit streams one device verdict and folds it into the running
// aggregate. Called from worker goroutines.
func (c *Campaign) noteUnit(v campaign.UnitVerdict) {
	c.mu.Lock()
	c.unitsRun++
	if v.Err != "" {
		c.unitsErrored++
	}
	if v.Err != "" || !v.Pass {
		c.unitsRejected++
	}
	c.mu.Unlock()
	c.emit(unitEvent{Type: "unit", Verdict: v})
}

// noteCell records a completed cell, streams it with the running
// aggregate, and checkpoints on the configured cadence.
func (s *Server) noteCell(c *Campaign, r campaign.CellResult) {
	c.mu.Lock()
	c.done[r.Stimulus+"\x00"+r.Fault] = r
	c.sinceCkpt++
	writeCkpt := c.sinceCkpt >= s.cfg.CheckpointEvery
	if writeCkpt {
		c.sinceCkpt = 0
	}
	c.mu.Unlock()
	c.emit(cellEvent{Type: "cell", Cell: r, Status: c.status()})
	if writeCkpt {
		s.writeCheckpoint(c)
	}
}

// doneKeys snapshots the completed cell keys.
func (c *Campaign) doneKeys() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.done))
	for k := range c.done {
		out[k] = true
	}
	return out
}

func (c *Campaign) setState(state, errMsg string) {
	c.mu.Lock()
	// Failed is sticky: a cell error must not be overwritten by the
	// epilogue's interrupted/done classification.
	if c.state != StateFailed {
		c.state = state
		c.errMsg = errMsg
	}
	c.mu.Unlock()
}

// Checkpoint builds the campaign's current checkpoint value.
func (c *Campaign) Checkpoint() *campaign.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	ck := &campaign.Checkpoint{
		GridHash:   c.gridHash,
		ShardIndex: c.Shard.Index,
		ShardCount: c.Shard.Count,
	}
	for _, r := range c.done {
		ck.Add(r)
	}
	return ck
}

// checkpointPath is CheckpointDir/<campaign id>.ckpt.json.
func (s *Server) checkpointPath(c *Campaign) string {
	return filepath.Join(s.cfg.CheckpointDir, c.ID+".ckpt.json")
}

// writeCheckpoint persists the current completed-cell set atomically
// (write-to-temp, rename) so a kill mid-write can never leave a truncated
// checkpoint that a resume would trust. A failure is reported (event and
// watchdog cause) and the campaign carries on.
func (s *Server) writeCheckpoint(c *Campaign) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	b, err := c.Checkpoint().MarshalCanonical()
	if err != nil {
		s.checkpointFailed(c, "marshal", err)
		return
	}
	path := s.checkpointPath(c)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		s.checkpointFailed(c, "write", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		s.checkpointFailed(c, "rename", err)
		return
	}
	mCkptWrites.Inc()
	s.lastCkptNanos.Store(time.Now().UnixNano())
	s.ckptFailed.Store(false)
	if eventlog.On() {
		c.mu.Lock()
		cells := len(c.done)
		c.mu.Unlock()
		eventlog.Emit("fleet.checkpoint.write",
			slog.String("campaign", c.ID),
			slog.Int("shard_index", c.Shard.Index),
			slog.Int("cells", cells))
	}
}

// checkpointFailed reports a failed write at step (marshal, write, rename)
// and holds the watchdog's checkpoint_failed cause until a write succeeds.
func (s *Server) checkpointFailed(c *Campaign, step string, err error) {
	s.ckptFailed.Store(true)
	if eventlog.On() {
		eventlog.Emit("fleet.checkpoint.error",
			slog.String("campaign", c.ID),
			slog.String("step", step),
			slog.String("error", err.Error()))
	}
}

// loadCheckpoint seeds a freshly admitted campaign from its checkpoint
// file, validating hash, shard and cell identity before trusting any of
// it. Completed cells are counted as resumed and will be skipped.
func (s *Server) loadCheckpoint(c *Campaign) error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	data, err := os.ReadFile(s.checkpointPath(c))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("fleet: read checkpoint: %w", err)
	}
	ck, err := campaign.ParseCheckpoint(data)
	if err != nil {
		return err
	}
	if err := ck.Validate(c.plan); err != nil {
		return err
	}
	if ck.ShardIndex != c.Shard.Index || ck.ShardCount != c.Shard.Count {
		return fmt.Errorf("fleet: checkpoint shard %d/%d does not match process shard %d/%d",
			ck.ShardIndex, ck.ShardCount, c.Shard.Index, c.Shard.Count)
	}
	owned := make(map[string]bool, len(c.shardIDs))
	for _, i := range c.shardIDs {
		owned[c.plan.Cells[i].Key()] = true
	}
	c.mu.Lock()
	for key, r := range ck.Done() {
		if !owned[key] {
			c.mu.Unlock()
			return fmt.Errorf("fleet: checkpoint carries cell outside this shard's partition")
		}
		c.done[key] = r
		c.resumed++
	}
	resumed := c.resumed
	c.mu.Unlock()
	mCellsResume.Add(int64(resumed))
	return nil
}

// campaignID derives the content-hash identity of (spec, shard): the same
// submission always lands on the same campaign, which is what makes
// retries idempotent and restarts resumable.
func campaignID(spec Spec, sh Shard) (string, error) {
	return provenance.Hash(struct {
		Spec       Spec
		ShardIndex int
		ShardCount int
	}{spec, sh.Index, sh.Count})
}

// Stream events. Encoded with encoding/json (compact, one line each) —
// the NDJSON stream is an operational surface, not a golden-pinned one.
type unitEvent struct {
	Type    string
	Verdict campaign.UnitVerdict
}

type cellEvent struct {
	Type   string
	Cell   campaign.CellResult
	Status Status
}

type stateEvent struct {
	Type   string
	Status Status
}

func (c *Campaign) emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.events.append(b)
}

func (c *Campaign) emitState() {
	st := c.status()
	if eventlog.On() {
		attrs := []slog.Attr{
			slog.String("campaign", c.ID),
			slog.String("state", st.State),
			slog.Int("shard_index", st.ShardIndex),
			slog.Int("shard_count", st.ShardCount),
			slog.Int("cells_done", st.CellsDone),
			slog.Int("cells_total", st.CellsTotal),
		}
		if st.Error != "" {
			attrs = append(attrs, slog.String("error", st.Error))
		}
		eventlog.Emit("fleet.state", attrs...)
	}
	c.emit(stateEvent{Type: "state", Status: st})
}

// WaitState blocks until the campaign reaches a terminal state or the
// timeout passes, returning the final status. Used by the CLI client and
// tests; HTTP clients follow the stream instead.
func (c *Campaign) WaitState(timeout time.Duration) Status {
	deadline := time.Now().Add(timeout)
	for {
		st := c.status()
		switch st.State {
		case StateDone, StateFailed, StateInterrupted:
			return st
		}
		if time.Now().After(deadline) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}
