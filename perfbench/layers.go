package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// taps is the kernel support of one reconstruction evaluation across both
// channels, 2*(2*HalfTaps+1) at the default HalfTaps of 30: the same
// normalisation core.Report.Compute uses.
const taps = 2 * (2*30 + 1)

// layerOf says which end-to-end metric a per-layer metric should move, on
// which workload, and where it should do little. Performance changes cite these names.
type layerOf struct {
	Unit    string `json:"unit"`
	Moves   string `json:"moves"`
	On      string `json:"on"`
	QuietOn string `json:"quiet_on,omitempty"`
}

// layerMap is the per-layer → end-to-end → workload map. Every traced run
// reports every entry; one that does not apply to the workload is 0 and
// listed under not_applicable in the report.
var layerMap = map[string]layerOf{
	"core.new_ms_p50":                      {"ms", "units_per_s", "campaign-lot", "unit-paper"},
	"core.run_ms_p50":                      {"ms", "unit_ms_p50", "unit-paper", ""},
	"core.stage.acquire_share":             {"ratio", "unit_ms_p50", "campaign-lot", ""},
	"core.stage.estimate_share":            {"ratio", "unit_ms_p50", "unit-paper", ""},
	"core.stage.reconstruct_share":         {"ratio", "unit_ms_p50", "unit-paper", ""},
	"core.stage.measure_share":             {"ratio", "unit_ms_p50", "campaign-lot", ""},
	"core.stage_closure":                   {"ratio", "(check: >= 0.9)", "unit-paper,campaign-lot", ""},
	"skew.cost_evals_per_unit":             {"count", "unit_ms_p50", "unit-paper", ""},
	"skew.lms_iters_per_unit":              {"count", "unit_ms_p50", "unit-paper", ""},
	"skew.us_per_cost_eval":                {"us", "unit_ms_p50", "unit-paper", ""},
	"skew.memo_hit_ratio":                  {"ratio", "unit_ms_p50", "unit-paper", ""},
	"pnbs.kernel_evals_per_unit":           {"count", "units_per_s", "unit-paper", "service-ckpt"},
	"pnbs.ns_per_tap_eval":                 {"ns", "units_per_s", "unit-paper", "service-ckpt"},
	"dsp.plan_hit_ratio":                   {"ratio", "setup_s,units_per_s", "campaign-lot", ""},
	"dsp.psd_samples_per_unit":             {"count", "units_per_s", "unit-paper", ""},
	"par.inline_ratio":                     {"ratio", "unit_ms_p50", "unit-paper", ""},
	"par.queue_depth_max":                  {"count", "campaign_s_p50", "service-ckpt", ""},
	"campaign.cell_ms_p50":                 {"ms", "units_per_s", "campaign-lot", ""},
	"campaign.cell_ms_p90":                 {"ms", "units_per_s", "campaign-lot", ""},
	"campaign.units_evaluated_per_cell":    {"count", "units_per_s", "campaign-lot", "service-ckpt"},
	"fleet.submit_ms_p50":                  {"ms", "first_verdict_ms_p50", "service-ckpt", ""},
	"fleet.queue_wait_ms_p50":              {"ms", "first_verdict_ms_p50", "service-ckpt", ""},
	"fleet.exec_s_p50":                     {"s", "campaign_s_p50,units_per_s", "service-ckpt", ""},
	"fleet.cell_gap_ms_p50":                {"ms", "campaign_s_p50,units_per_s", "service-ckpt", ""},
	"fleet.matrix_ms_p50":                  {"ms", "campaign_s_p50,units_per_s", "service-ckpt", ""},
	"fleet.checkpoint_writes_per_campaign": {"count", "units_per_s", "service-ckpt", "campaign-lot"},
	"fleet.checkpoint_mb_per_campaign":     {"computed_MB", "units_per_s", "service-ckpt", "campaign-lot"},
	"fleet.stream_kb_per_campaign":         {"KB", "campaign_s_p50", "service-ckpt", ""},
	"obs.trace_overhead_pct":               {"%", "(traced vs untraced units_per_s)", "every workload", ""},
}

var layerNames, layerUnits = func() ([]string, map[string]string) {
	var names []string
	units := map[string]string{}
	for name, l := range layerMap {
		names = append(names, name)
		units[name] = l.Unit
	}
	sort.Strings(names)
	return names, units
}()

// reportSums accumulates the exact work counts a core.Report carries.
type reportSums struct {
	n                                       int
	costEvals, lmsIters, kernelEvals, psdSz int64
}

func (r *reportSums) add(rep *core.Report) {
	r.n++
	r.costEvals += int64(rep.Compute.CostEvals)
	r.lmsIters += int64(rep.LMS.Iterations)
	r.kernelEvals += rep.Compute.KernelEvals
	r.psdSz += int64(rep.Compute.PSDSamples)
}

// outcome is what one pass of a workload measured and produced.
type outcome struct {
	lots, units, cells int
	attempted, failed  int
	agree, rejected    int
	// wall is the timed phase without the reference slices; host holds
	// those slices (see calibrate.go).
	wall time.Duration
	host hostClock

	unitMS, campaignS, firstMS, skewPS []float64

	// inputs and outputs digest every generated input and every
	// deterministic output (verdicts, estimates, matrices) in order.
	inputs, outputs hash.Hash
	reports         reportSums
	// failures describes each failed operation; wrong each output that
	// failed a correctness check.
	failures, wrong []string
}

func newOutcome() *outcome {
	return &outcome{inputs: sha256.New(), outputs: sha256.New()}
}

// deterministic is the part of a pass that repeats exactly at one seed.
func (o *outcome) deterministic() map[string]any {
	d := map[string]any{
		"lots": o.lots, "units": o.units, "cells": o.cells,
		"attempted": o.attempted, "failed": o.failed,
		"rejected": o.rejected, "agree": o.agree,
		"input_digest":  hex.EncodeToString(o.inputs.Sum(nil)[:8]),
		"output_digest": hex.EncodeToString(o.outputs.Sum(nil)[:8]),
	}
	if o.units > 0 {
		d["verdict_agree_ratio"] = float64(o.agree) / float64(o.units)
	}
	if len(o.skewPS) > 0 {
		d["skew_err_ps_p50"] = median(o.skewPS)
	}
	if o.reports.n > 0 {
		d["cost_evals"] = o.reports.costEvals
		d["lms_iters"] = o.reports.lmsIters
		d["kernel_evals"] = o.reports.kernelEvals
	}
	return d
}

// commonLayers derives the per-layer metrics every workload shares from
// the traced pass: stage shares and closure from the core.stage.*
// histograms, work ratios from the skew/dsp/par counters, and the tracing
// overhead against the untraced pass. coreRunS, when positive, is the
// benchmark's own core.run span time; otherwise the program's
// core.stage.total histogram is the denominator.
func commonLayers(w workload, o, ot *outcome, snap *obs.Snapshot, coreRunS float64, m metrics) []string {
	hsum := func(name string) float64 { return snap.Histograms[name].Sum }
	ctr := func(name string) float64 { return float64(snap.Counters[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if coreRunS <= 0 {
		coreRunS = hsum("core.stage.total.seconds")
	}
	est := hsum("core.stage.estimate.seconds")
	stages := 0.0
	for _, st := range []string{"acquire", "estimate", "reconstruct", "measure"} {
		v := hsum("core.stage." + st + ".seconds")
		stages += v
		m.set("core.stage."+st+"_share", ratio(v, coreRunS), "ratio")
	}
	closure := ratio(stages, coreRunS)
	m.set("core.stage_closure", closure, "ratio")
	var wrong []string
	if w.name != "service-ckpt" && closure < 0.9 {
		wrong = append(wrong, fmt.Sprintf("core.stage_closure %.3f < 0.9", closure))
	}
	evals := ctr("skew.cost.evals")
	m.set("skew.us_per_cost_eval", ratio(est*1e6, evals), "us")
	m.set("skew.memo_hit_ratio", ratio(ctr("skew.lms.memo.hits"), evals), "ratio")
	m.set("pnbs.ns_per_tap_eval", ratio(est*1e9, evals*float64(w.nTimes)*2*taps), "ns")
	hits := ctr("dsp.plan.hits")
	m.set("dsp.plan_hit_ratio", ratio(hits, hits+ctr("dsp.plan.misses")), "ratio")
	m.set("par.inline_ratio", ratio(ctr("par.for.inline"), ctr("par.for.calls")), "ratio")
	m.set("par.queue_depth_max", float64(snap.Gauges["par.queue.depth"].Max), "count")
	ups := func(x *outcome) float64 { return float64(x.units) / x.wall.Seconds() * x.host.factor() }
	m.set("obs.trace_overhead_pct", 100*(ups(o)/ups(ot)-1), "%")
	return wrong
}

// unitLayers reports the per-unit work counts of the Reports a pass saw
// and the core.New / BIST.Run span percentiles.
func unitLayers(rs reportSums, tr *tracer, m metrics) error {
	if rs.n == 0 {
		return fmt.Errorf("no report to derive unit layers from")
	}
	n := float64(rs.n)
	m.set("skew.cost_evals_per_unit", float64(rs.costEvals)/n, "count")
	m.set("skew.lms_iters_per_unit", float64(rs.lmsIters)/n, "count")
	m.set("pnbs.kernel_evals_per_unit", float64(rs.kernelEvals)/n, "count")
	m.set("dsp.psd_samples_per_unit", float64(rs.psdSz)/n, "count")
	for _, s := range []struct{ span, name string }{{"core.new", "core.new_ms_p50"}, {"core.run", "core.run_ms_p50"}} {
		v, err := percentile(tr.durations(s.span), 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		m.set(s.name, v, "ms")
	}
	return nil
}
