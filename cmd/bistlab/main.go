// Command bistlab regenerates every table and figure of the paper's
// evaluation (DATE 2014, "A flexible BIST strategy for SDR transmitters").
//
// Usage:
//
//	bistlab <experiment> [flags]
//
// Experiments:
//
//	fig3a   PBS alias-free wedges, normalised (paper Fig. 3a)
//	fig3b   feasible subsampling rates for fH = 2.03 GHz, B = 30 MHz (Fig. 3b)
//	fig5    cost function vs delay estimate (Fig. 5)
//	fig6    LMS convergence from several starts (Fig. 6)
//	table1  time-skew estimation comparison (Table I)
//	eq4     reconstruction-error bound validation (Eq. 4/5)
//	dsweep  kernel coefficient magnitude vs delay (Section II-B.1)
//	mask    end-to-end spectral-mask BIST with fault injection
//	flex    multistandard flexibility sweep (Section II-B)
//	ablate  design-choice sweeps (taps, window, N, jitter) + minimiser duel
//	noise   wideband-noise folding analysis (Section II-B.3)
//	yield   Monte-Carlo production yield (in-spec vs marginal lot)
//	avg     multi-capture averaging of the delay estimate
//	loop    loopback fault-masking vs direct PNBS observation
//	resp    reconstruction-filter frequency response vs length
//	all     run everything above in sequence
//
// Coverage campaigns (not part of "all"):
//
//	campaign  stimulus x fault detection matrix; -campaign selects the
//	          grid JSON file (default: the built-in reference grid).
//	          `bistlab -campaign grid.json` is accepted as a shorthand.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime/pprof"
	rtrace "runtime/trace"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/eventlog"
	"repro/internal/obs/provenance"
	"repro/internal/obs/trace"
	"repro/internal/testkit"
)

// Per-experiment instruments: one counter per experiment name plus a shared
// stage — the "bistlab.run" root span every invocation runs under and its
// latency histogram — so `bistlab all -metrics` profiles the whole paper
// regeneration in one pass.
var stExperiment = obs.NewStage("bistlab.run", "bistlab.experiment.seconds")

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bistlab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bistlab", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "capture/PSD size scale in (0, 1]: smaller is faster, noisier")
	nPts := fs.Int("points", 0, "sweep point count (experiment-specific default when 0)")
	jsonOut := fs.Bool("json", false, "emit the structured result as JSON instead of text")
	campaignPath := fs.String("campaign", "", "coverage-campaign grid JSON file (\"default\" or empty = built-in reference grid); implies the campaign experiment when no name is given")
	metrics := fs.Bool("metrics", false, "collect runtime metrics and append a per-run metrics block to the report")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /metrics.prom on this address for the run's duration (implies -metrics)")
	pprofFlag := fs.Bool("pprof", false, "also serve /debug/pprof on -metrics-addr (net/http/pprof)")
	traceOut := fs.String("trace", "", "record a hierarchical trace and write Chrome trace-event JSON (Perfetto-loadable) to this file; - writes to stdout")
	traceNorm := fs.String("trace-normalized", "", "also write the normalized (timestamp-free, worker-count-invariant) span tree to this file; - writes to stdout")
	manifest := fs.Bool("manifest", false, "append the run-provenance manifest (canonical JSON) to the report")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (offline alternative to -pprof's live endpoint)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	runtimetrace := fs.String("runtimetrace", "", "write a runtime/trace execution trace (go tool trace) to this file; scheduler-level, unlike -trace's pipeline spans")
	logJSON := fs.Bool("log-json", false, "emit lifecycle events as canonical JSON lines on stderr instead of text")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bistlab <fig3a|fig3b|fig5|fig6|table1|eq4|dsweep|mask|flex|ablate|noise|yield|avg|loop|resp|all> [flags]")
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing experiment name")
	}
	// `bistlab -campaign grid.json` (flags only, no positional experiment)
	// is the documented campaign shorthand.
	name, rest := args[0], args[1:]
	if len(name) > 0 && name[0] == '-' {
		name, rest = "", args
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if name == "" {
		if *campaignPath == "" {
			fs.Usage()
			return fmt.Errorf("missing experiment name")
		}
		name = "campaign"
	}
	if *pprofFlag && *metricsAddr == "" {
		return fmt.Errorf("-pprof needs -metrics-addr to serve on")
	}
	collect := *metrics || *metricsAddr != ""
	if collect {
		obs.Enable()
		obs.Reset() // per-run deltas, not process-lifetime totals
		defer obs.Disable()
	}
	// Lifecycle events go to stderr, so stdout stays the byte-deterministic
	// report stream. Installed only for this run; restored on return so the
	// run() helper stays reentrant under test.
	if *logJSON {
		defer eventlog.Set(eventlog.Set(slog.New(eventlog.NewJSONHandler(os.Stderr))))
	} else {
		defer eventlog.Set(eventlog.Set(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	if *metricsAddr != "" {
		srv, err := startMetricsServer(*metricsAddr, *pprofFlag)
		if err != nil {
			return err
		}
		defer srv.Close()
		eventlog.Emit("bistlab.metrics.serving",
			slog.String("metrics", "http://"+srv.Addr()+"/metrics"),
			slog.String("prom", "http://"+srv.Addr()+"/metrics.prom"))
		if *pprofFlag {
			eventlog.Emit("bistlab.pprof.serving",
				slog.String("pprof", "http://"+srv.Addr()+"/debug/pprof/"))
		}
	}
	// Offline profiling (file-based, vs. -pprof's live endpoint — see
	// README's Tracing section for when to use which).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bistlab: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bistlab: memprofile:", err)
			}
		}()
	}
	if *runtimetrace != "" {
		f, err := os.Create(*runtimetrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	// The provenance manifest fingerprints this invocation; it is embedded
	// in every trace export and appended standalone under -manifest.
	collectManifest := func() (provenance.Manifest, error) {
		return provenance.Collect("bistlab", name, experiments.DefaultPaperSetup().Seed,
			struct {
				Experiment string
				Scale      float64
				Points     int
			}{name, *scale, *nPts})
	}
	tracing := *traceOut != "" || *traceNorm != ""
	if tracing {
		if err := trace.StartRecording(trace.Config{}); err != nil {
			return err
		}
	}
	runErr := func() error {
		if name == "all" {
			for _, n := range []string{"fig3a", "fig3b", "fig5", "fig6", "table1", "eq4", "dsweep", "mask", "flex", "ablate", "noise", "yield", "avg", "loop", "resp"} {
				fmt.Fprintf(w, "==== %s ====\n", n)
				if err := runOne(w, n, *scale, *nPts, *jsonOut, *campaignPath); err != nil {
					return fmt.Errorf("%s: %w", n, err)
				}
				fmt.Fprintln(w)
			}
			return nil
		}
		return runOne(w, name, *scale, *nPts, *jsonOut, *campaignPath)
	}()
	if tracing {
		rec := trace.StopRecording()
		if runErr == nil && rec != nil {
			man, err := collectManifest()
			if err != nil {
				return err
			}
			rec.SetManifest(man)
			if *traceOut != "" {
				if err := writeArtifact(w, *traceOut, rec.WriteChrome); err != nil {
					return fmt.Errorf("trace: %w", err)
				}
			}
			if *traceNorm != "" {
				b, err := rec.MarshalNormalized()
				if err != nil {
					return fmt.Errorf("trace-normalized: %w", err)
				}
				if err := writeArtifact(w, *traceNorm, func(out io.Writer) error {
					_, err := out.Write(b)
					return err
				}); err != nil {
					return fmt.Errorf("trace-normalized: %w", err)
				}
			}
		}
	}
	if runErr != nil {
		return runErr
	}
	if *manifest {
		man, err := collectManifest()
		if err != nil {
			return err
		}
		b, err := man.MarshalCanonical()
		if err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintln(w, "---- provenance ----")
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if collect {
		return emitMetricsBlock(w, *jsonOut)
	}
	return nil
}

// writeArtifact writes via emitFn either to the report stream ("-") or to a
// freshly created file.
func writeArtifact(w io.Writer, path string, emitFn func(io.Writer) error) error {
	if path == "-" {
		return emitFn(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emitFn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitMetricsBlock appends the per-run metrics snapshot to the report: a
// delimited section in text mode, a second canonical-JSON document (JSON
// lines style) after the result in -json mode. Counters are deltas since
// the start of the invocation (the registry is reset before the run), so
// the block carries the run's cost-eval and cache-traffic counts.
func emitMetricsBlock(w io.Writer, jsonOut bool) error {
	b, err := obs.MarshalSnapshot()
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Fprintln(w, "---- metrics ----")
	}
	_, err = w.Write(b)
	return err
}

// renderer unifies text and JSON emission: every experiment result is an
// exported struct with a Render method.
type renderer interface{ Render(io.Writer) }

// emit writes v as text or as canonical JSON. The canonical encoder keeps
// -json output byte-deterministic across runs and platforms (declaration-
// order fields, sorted map keys, shortest-roundtrip floats) and — unlike
// encoding/json — survives the ±Inf sentinels some results legitimately
// carry (e.g. empty alias-free wedges in fig3a).
func emit(w io.Writer, v renderer, jsonOut bool) error {
	if !jsonOut {
		v.Render(w)
		return nil
	}
	b, err := testkit.MarshalCanonical(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func runOne(w io.Writer, name string, scale float64, nPts int, jsonOut bool, campaignPath string) error {
	obs.C("bistlab.runs." + name).Inc()
	sp := stExperiment.Start(trace.Root)
	sp.SetAttr("experiment", name)
	defer sp.End()
	setup := experiments.DefaultPaperSetup()
	switch name {
	case "fig3a":
		return emit(w, experiments.RunFig3a(3, nPts), jsonOut)
	case "fig3b":
		r, err := experiments.RunFig3b()
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "fig5":
		r, err := experiments.RunFig5(setup, 0, 0, nPts, 0)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "fig6":
		// -scale shrinks the cost-function point count and -points the
		// rate-B capture length, which is what lets `make trace-smoke`
		// capture a reduced Fig. 6 trace in seconds.
		if scale > 0 && scale < 1 {
			if n := int(float64(setup.NTimes) * scale); n >= 16 {
				setup.NTimes = n
			} else {
				setup.NTimes = 16
			}
		}
		r, err := experiments.RunFig6(setup, nil, nPts)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "table1":
		r, err := experiments.RunTable1(setup, 0)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "eq4":
		r, err := experiments.RunEq4(nil)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "dsweep":
		r, err := experiments.RunDSweep(setup.BandB, 0, nPts)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "mask":
		r, err := experiments.RunMaskBIST(scale)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "flex":
		r, err := experiments.RunFlex(scale)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "ablate":
		r, err := experiments.RunAblate()
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "noise":
		r, err := experiments.RunNoiseFold(0.9e9, 1.9e9, 1e-4)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "yield":
		r, err := experiments.RunYieldExperiment(nPts, scale)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "avg":
		r, err := experiments.RunAveraging(nil)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "loop":
		r, err := experiments.RunLoopback()
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "resp":
		r, err := experiments.RunFilterResp()
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	case "campaign":
		var grid *campaign.Grid
		if campaignPath != "" && campaignPath != "default" {
			data, err := os.ReadFile(campaignPath)
			if err != nil {
				return err
			}
			g, err := campaign.ParseGrid(data)
			if err != nil {
				return err
			}
			grid = &g
		}
		// -scale < 1 overrides the grid's own scale, mirroring the other
		// experiments (and letting `make campaign-smoke` shrink a committed
		// grid without editing it).
		r, err := experiments.RunCoverage(grid, scale, 0)
		if err != nil {
			return err
		}
		return emit(w, r, jsonOut)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}
