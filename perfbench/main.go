// Command perfbench is the repository's end-to-end benchmark: it drives
// the BIST through the public APIs of core, campaign and fleet as a tester
// would, on one of three closed-loop workloads, and prints every metric
// with its unit.
//
//	perfbench --workload unit-paper|campaign-lot|service-ckpt \
//	    --seed N --seconds S --trace 0|1
//
// A run is sized by a fixed count — one lot (or campaign) per requested
// second, never fewer than 20 — not by wall-clock time, so the work done,
// the allocation and the retained memory do not depend on the host's
// speed. --trace 0 reports the end-to-end metrics; --trace 1 repeats the
// timed phase with spans and the obs registry on and reports the per-layer
// metrics instead. The last line of stdout is the result object; the line
// before it is the full report (provenance, sample counts, deterministic
// outputs). A wrong output makes the run exit 1 with "correct": false.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// procStart approximates process start for setup_s: package variables are
// initialised before main runs, after only the runtime's own start-up.
var procStart = time.Now()

// setupChildren is how many extra processes re-run the set-up alone, so
// setup_s is a median over setupChildren+1 fresh processes. Each process
// times the host with setupRefSlices reference slices after its set-up.
const (
	setupChildren  = 4
	setupRefSlices = 4
)

// maxListed caps the failed operations the report names one by one.
const maxListed = 20

// minLots is the smallest lot or campaign count of a run: 20 samples put
// 10 beyond the p50 of campaign_s and first_verdict_ms.
const minLots = 20

// session is one workload after set-up: generated inputs, warmed lazy
// tables and, for the service, a running server.
type session interface {
	// pass runs lots [first, first+n) of the workload's seeded input
	// stream. tr is nil on the untraced pass.
	pass(first, n int, tr *tracer) (*outcome, error)
	// layers adds the workload's own per-layer metrics from a traced pass.
	layers(o *outcome, tr *tracer, snap *obs.Snapshot, m metrics) error
	close() error
}

type workload struct {
	name string
	// nTimes is the estimator grid size of the workload's units, used to
	// normalise estimate time per kernel tap.
	nTimes int
	setup  func(seed int64, lots int, workDir string) (session, error)
}

var workloads = map[string]workload{
	"unit-paper":   {name: "unit-paper", nTimes: 300, setup: setupUnitPaper},
	"campaign-lot": {name: "campaign-lot", nTimes: 60, setup: setupCampaignLot},
	"service-ckpt": {name: "service-ckpt", nTimes: 60, setup: setupServiceCkpt},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "unit-paper, campaign-lot or service-ckpt")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "run size: one lot or campaign per second (at least 20)")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set up, print the set-up time and exit (used for setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload unit-paper|campaign-lot|service-ckpt, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	lots := *seconds
	if lots < minLots {
		lots = minLots
	}
	workDir := filepath.Join(envOr("BENCH_WORK_DIR", ".bench_build"), "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	if *setupOnly {
		s, err := w.setup(*seed, lots, workDir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		setup := time.Since(procStart).Seconds()
		var h hostClock
		h.sample(setupRefSlices)
		fmt.Fprintln(stdout, setup, h.factor())
		if err := s.close(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	res, err := measure(w, *seed, lots, *traceFlag == 1, workDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, _ := json.Marshal(res.report)
	fmt.Fprintln(stdout, string(rep))
	line, _ := json.Marshal(res.line)
	fmt.Fprintln(stdout, string(line))
	if !res.line.Correct {
		fmt.Fprintln(stderr, "perfbench: WRONG OUTPUT:", strings.Join(res.report.Wrong, "; "))
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// resultLine is the last line of stdout.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the line before it: everything needed to interpret and
// reproduce the result.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Provenance map[string]any `json:"provenance"`
	Samples    map[string]int `json:"samples"`
	Determ     map[string]any `json:"deterministic"`
	Extra      metrics        `json:"extra_metrics"`
	// Raw holds the time-based metrics before scaling to reference host
	// speed by HostFactor (cpu_ms_per_unit by HostCPUFactor).
	Raw           metrics            `json:"raw_metrics,omitempty"`
	HostFactor    float64            `json:"host_factor,omitempty"`
	HostCPUFactor float64            `json:"host_cpu_factor,omitempty"`
	NotApplied    []string           `json:"not_applicable,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
	Wrong         []string           `json:"wrong,omitempty"`
	Layers        map[string]layerOf `json:"layer_map,omitempty"`
}

type result struct {
	report report
	line   resultLine
}

func measure(w workload, seed int64, lots int, traced bool, workDir string) (_ *result, err error) {
	var setups []setupTime
	if !traced {
		if setups, err = childSetups(w.name, seed, lots); err != nil {
			return nil, err
		}
	}
	s, err := w.setup(seed, lots, workDir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if cerr := s.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	own := setupTime{raw: time.Since(procStart).Seconds()}
	if !traced {
		var h hostClock
		h.sample(setupRefSlices)
		own.factor = h.factor()
		setups = append(setups, own)
	}
	runtime.GC()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, steal0 := cpuTime(), stealTicks()
	o, err := s.pass(0, lots, nil)
	if err != nil {
		return nil, err
	}
	cpu1, steal1 := cpuTime(), stealTicks()
	runtime.ReadMemStats(&m1)

	r := &result{
		report: report{
			Workload: w.name, Seed: seed, Trace: traced,
			Provenance: provenance(),
			Samples:    map[string]int{},
			Determ:     o.deterministic(),
			Extra:      metrics{},
			Raw:        metrics{},
		},
		line: resultLine{Metrics: metrics{}},
	}
	r.report.Wrong = append(r.report.Wrong, o.wrong...)
	r.report.Failures = append(r.report.Failures, o.failures...)
	attempted, failed := o.attempted, o.failed

	if !traced {
		// The reference slices' CPU time is not the workload's.
		cpu := cpu1 - cpu0 - o.host.cpu
		if err := endToEnd(o, setups, m1.TotalAlloc-m0.TotalAlloc, cpu, r); err != nil {
			return nil, err
		}
		// The share of CPU time the hypervisor gave to other guests while
		// the timed phase ran: one source of the host drift the reference
		// slices correct for.
		r.report.Extra.set("steal_share", float64(steal1-steal0)/100/o.wall.Seconds()/float64(runtime.NumCPU()), "ratio")
	} else {
		obs.Reset()
		obs.Enable()
		tr := newTracer()
		ot, err := s.pass(lots, lots, tr)
		snap := obs.Default().Snapshot()
		obs.Disable()
		if err != nil {
			return nil, err
		}
		r.report.Wrong = append(r.report.Wrong, ot.wrong...)
		r.report.Failures = append(r.report.Failures, ot.failures...)
		attempted += ot.attempted
		failed += ot.failed
		lm := r.line.Metrics
		coreRunS := 0.0
		for _, d := range tr.durations("core.run") {
			coreRunS += d / 1e3
		}
		r.report.Wrong = append(r.report.Wrong, commonLayers(w, o, ot, snap, coreRunS, lm)...)
		if err := s.layers(ot, tr, snap, lm); err != nil {
			return nil, err
		}
		for _, name := range layerNames {
			if _, ok := lm[name]; !ok {
				lm.set(name, 0, layerUnits[name])
				r.report.NotApplied = append(r.report.NotApplied, name)
			}
		}
		r.report.Layers = layerMap
		if err := tr.write(filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))); err != nil {
			return nil, err
		}
	}
	r.line.Correct = len(r.report.Wrong) == 0
	r.line.Attempted, r.line.Failed = attempted, failed
	if n := len(r.report.Failures); n > maxListed {
		r.report.Failures = append(r.report.Failures[:maxListed], fmt.Sprintf("... %d more", n-maxListed))
	}
	return r, nil
}

// endToEnd fills the untraced run's metrics. Time-based metrics are
// reported at reference host speed (see calibrate.go); their raw
// wall-clock values go to the report's raw_metrics.
func endToEnd(o *outcome, setups []setupTime, alloc uint64, cpu time.Duration, r *result) error {
	m, x := r.line.Metrics, r.report.Extra
	if o.units == 0 {
		return errors.New("no unit completed")
	}
	f := o.host.factor()
	r.report.HostFactor, r.report.HostCPUFactor = f, o.host.cpuFactor()
	timed := func(name string, raw float64, unit string) {
		r.report.Raw.set(name, raw, unit)
		m.set(name, raw/f, unit)
	}
	pcts := []struct {
		name string
		xs   []float64
		p    float64
		unit string
	}{
		{"unit_ms_p50", o.unitMS, 0.5, "ms"},
		{"unit_ms_p90", o.unitMS, 0.9, "ms"},
		{"campaign_s_p50", o.campaignS, 0.5, "s"},
		{"first_verdict_ms_p50", o.firstMS, 0.5, "ms"},
	}
	for _, p := range pcts {
		v, err := percentile(p.xs, p.p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		timed(p.name, v, p.unit)
		r.report.Samples[p.name] = len(p.xs)
	}
	if len(o.skewPS) > 0 {
		v, err := percentile(o.skewPS, 0.5)
		if err != nil {
			return fmt.Errorf("skew_err_ps_p50: %w", err)
		}
		x.set("skew_err_ps_p50", v, "ps")
		r.report.Samples["skew_err_ps_p50"] = len(o.skewPS)
	}
	var raw, scaled []float64
	for _, s := range setups {
		raw = append(raw, s.raw)
		scaled = append(scaled, s.raw/s.factor)
	}
	r.report.Raw.set("setup_s", median(raw), "s")
	m.set("setup_s", median(scaled), "s")
	r.report.Samples["setup_s"] = len(setups)
	ups := float64(o.units) / o.wall.Seconds()
	r.report.Raw.set("units_per_s", ups, "1/s")
	m.set("units_per_s", ups*f, "1/s")
	cpuMS := ms(cpu) / float64(o.units)
	r.report.Raw.set("cpu_ms_per_unit", cpuMS, "ms")
	m.set("cpu_ms_per_unit", cpuMS/o.host.cpuFactor(), "ms")
	m.set("alloc_mb_per_unit", float64(alloc)/1e6/float64(o.units), "MB")
	m.set("rss_peak_mb", rssPeakMB(), "MB")
	m.set("verdict_agree_ratio", float64(o.agree)/float64(o.units), "ratio")
	x.set("failed_ratio", float64(o.failed)/float64(o.attempted), "ratio")
	return nil
}

// setupTime is one process's set-up time and the host factor measured
// right after it.
type setupTime struct{ raw, factor float64 }

// childSetups re-runs the set-up in fresh processes, in sequence.
func childSetups(name string, seed int64, lots int) ([]setupTime, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupTime
	for i := 0; i < setupChildren; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", name,
			"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(lots))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		var st setupTime
		if _, err := fmt.Sscan(string(b), &st.raw, &st.factor); err != nil {
			return nil, fmt.Errorf("setup child output %q: %w", b, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// provenance records what the numbers were measured on. Results taken at
// different core counts are not comparable (allocation counts alone
// differ between 1 and 2 cores), so the counts are part of every report.
func provenance() map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"GOMAXPROCS":  runtime.GOMAXPROCS(0),
		"par_workers": par.Workers(),
		"NumCPU":      runtime.NumCPU(),
		"go":          runtime.Version(),
		"commit":      commit,
	}
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine's steal time (USER_HZ ticks) from
// /proc/stat: time the hypervisor ran something else on our CPUs.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
