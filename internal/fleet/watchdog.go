package fleet

import (
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/eventlog"
)

// Watchdog instruments. These are deliberately excluded from the
// normalized telemetry snapshot (see obs.Normalized): a ticker-driven
// sampler fires a wall-clock-dependent number of times per run.
var (
	mWatchTicks       = obs.C("watchdog.ticks")
	mWatchTransitions = obs.C("watchdog.transitions")
)

// Health states, ordered by severity. ok and degraded serve 200 from
// /healthz (degraded is a warning, not an outage); stalled and draining
// serve 503 so a load balancer stops routing new campaigns here.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthStalled  = "stalled"
	HealthDraining = "draining"
)

// Health cause codes, machine-readable so a fleet controller can react
// without parsing prose.
const (
	CauseQueueSaturated   = "queue_saturated"
	CauseNoCompletion     = "no_completion"
	CauseCheckpointStale  = "checkpoint_stale"
	CauseCheckpointFailed = "checkpoint_failed"
)

// Health is the /healthz payload: a state plus the machine-readable
// causes that produced it and the raw samples they were judged from.
type Health struct {
	State  string   `json:"state"`
	Causes []string `json:"causes,omitempty"`
	// Queue occupancy at the last watchdog sample.
	QueueDepth  int   `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`
	QueueActive int64 `json:"queue_active"`
	// CellsDone is the queue's lifetime completed-job count — the
	// monotonic progress signal the stall detector watches.
	CellsDone int64 `json:"cells_done"`
	// RunningCampaign is the ID of the campaign currently executing,
	// empty when the fleet is idle.
	RunningCampaign string `json:"running_campaign,omitempty"`
}

// WatchdogConfig tunes the fleet health sampler.
type WatchdogConfig struct {
	// Interval between samples (default 1s).
	Interval time.Duration
	// StallIntervals is how many consecutive samples may pass with a
	// campaign running but no job completing before the fleet is declared
	// stalled (default 3).
	StallIntervals int
	// CheckpointCadences is how many intervals a running campaign may go
	// without a checkpoint write (when checkpointing is configured)
	// before health degrades to checkpoint_stale (default 5).
	CheckpointCadences int
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.StallIntervals < 1 {
		c.StallIntervals = 3
	}
	if c.CheckpointCadences < 1 {
		c.CheckpointCadences = 5
	}
	return c
}

// Watchdog samples the server's execution machinery on a ticker and
// distils the readings into a Health report. It reads only queue-local
// atomics and server state — never obs metrics, so it works with
// BIST_METRICS off — and never influences scheduling: a stalled verdict
// changes the /healthz status code, nothing else.
type Watchdog struct {
	s   *Server
	cfg WatchdogConfig

	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	health Health

	// Stall tracking across ticks.
	lastDone   int64
	idleTicks  int // consecutive ticks with a running campaign and no completions
	satTicks   int // consecutive ticks with the queue buffer full
	firstState bool
}

// StartWatchdog begins health sampling. The returned Watchdog is also
// installed on the server, upgrading /healthz from a liveness ping to a
// readiness report. Close it (or Shutdown the server) to stop sampling.
func (s *Server) StartWatchdog(cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		s:    s,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	w.health = Health{State: HealthOK}
	w.lastDone = s.queue.Done()
	s.watchdog.Store(w)
	go w.run()
	return w
}

// Close stops the sampler. Idempotent is not required — the server calls
// it exactly once from Shutdown, and external callers who started it
// early may call it instead; the select guards a double close.
func (w *Watchdog) Close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

func (w *Watchdog) run() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.tick()
		}
	}
}

// Health returns the latest sample.
func (w *Watchdog) Health() Health {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.health
}

// tick takes one sample and rejudges health.
func (w *Watchdog) tick() {
	mWatchTicks.Inc()
	s := w.s

	h := Health{
		QueueDepth:  s.queue.Depth(),
		QueueCap:    s.queue.Cap(),
		QueueActive: s.queue.Active(),
		CellsDone:   s.queue.Done(),
	}
	var running *Campaign
	if c := s.running.Load(); c != nil {
		running = c
		h.RunningCampaign = c.ID
	}

	// Progress: with a campaign running, completed-job count must move.
	if running != nil && h.CellsDone == w.lastDone {
		w.idleTicks++
	} else {
		w.idleTicks = 0
	}
	w.lastDone = h.CellsDone

	// Saturation: a full buffer is backpressure by design; a full buffer
	// that stays full is a warning.
	if h.QueueCap > 0 && h.QueueDepth >= h.QueueCap {
		w.satTicks++
	} else {
		w.satTicks = 0
	}

	state := HealthOK
	if w.satTicks >= w.cfg.StallIntervals {
		h.Causes = append(h.Causes, CauseQueueSaturated)
		state = HealthDegraded
	}
	if s.cfg.CheckpointDir != "" && running != nil {
		if last := s.lastCkptNanos.Load(); last > 0 {
			age := time.Duration(time.Now().UnixNano() - last)
			if age > time.Duration(w.cfg.CheckpointCadences)*w.cfg.Interval {
				h.Causes = append(h.Causes, CauseCheckpointStale)
				state = HealthDegraded
			}
		}
	}
	if s.ckptFailed.Load() {
		h.Causes = append(h.Causes, CauseCheckpointFailed)
		state = HealthDegraded
	}
	if w.idleTicks >= w.cfg.StallIntervals {
		h.Causes = append(h.Causes, CauseNoCompletion)
		state = HealthStalled
	}
	h.State = state

	w.mu.Lock()
	prev := w.health.State
	w.health = h
	first := !w.firstState
	w.firstState = true
	w.mu.Unlock()

	if prev != state && !first {
		mWatchTransitions.Inc()
	}
	if prev != state && eventlog.On() {
		attrs := []slog.Attr{
			slog.String("from", prev),
			slog.String("to", state),
			slog.Int("queue_depth", h.QueueDepth),
			slog.Int64("queue_active", h.QueueActive),
			slog.Int64("cells_done", h.CellsDone),
		}
		if h.RunningCampaign != "" {
			attrs = append(attrs, slog.String("campaign", h.RunningCampaign))
		}
		for _, cause := range h.Causes {
			attrs = append(attrs, slog.String("cause", cause))
		}
		eventlog.Emit("watchdog.state", attrs...)
	}
}

// Health is the server-level readiness view: draining dominates (set the
// moment Shutdown begins), then the watchdog's verdict when one is
// running, else a bare ok — a server without a watchdog still reports
// liveness, it just cannot detect stalls.
func (s *Server) Health() Health {
	if s.draining.Load() {
		return Health{State: HealthDraining}
	}
	if w := s.watchdog.Load(); w != nil {
		return w.Health()
	}
	return Health{State: HealthOK}
}
