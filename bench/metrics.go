package main

import (
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json repeats these two tables for
// the driver; bench_test.go keeps the file and the tables in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before -compare calls it a regression.
	Bound float64
	// Exact marks a simulated statistic or other count that repeats exactly
	// for one seed; -compare requires it equal on both sides.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator sees, printed by every workload.
// paper_err_pct is not here: the driver's contract wants every workload to
// print every end-to-end metric, and only paper-sweep has it, so it is the
// layer metric core.paper_err_pct and -compare holds it exact.
//
// The bounds are what this repository's two-core sandbox supports, not what
// one would wish for: over three sets of ten runs the host's own speed moved
// the median pass time by up to 37 % between sets and spread it by 2–11 %
// within one, peak RSS by up to 12 %, and ten different seeds move observed's
// allocation by 3.5 %. README.md has the measurements.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "sim_s_per_wall_s", Unit: "s/s", Better: higher, Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: lower, Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer is what the traced run reports, prefixed by the package it
// measures. A metric that does not apply to a workload reads 0 there;
// README.md has the table of which applies where.
var perLayer = []metricDef{
	{Name: "scenario.parse_s", Unit: "s", Better: lower},
	{Name: "scenario.compile_s", Unit: "s", Better: lower},
	{Name: "scenario.extract_s", Unit: "s", Better: lower},
	{Name: "scenario.report_self_s", Unit: "s", Better: lower},
	{Name: "scenario.marshal_s", Unit: "s", Better: lower},
	{Name: "scenario.report_bytes", Unit: "bytes", Better: lower, Exact: true},

	{Name: "core.trials", Unit: "count", Better: lower, Exact: true},
	{Name: "core.machine_build_s", Unit: "s", Better: lower},
	{Name: "core.install_s", Unit: "s", Better: lower},
	{Name: "core.mallocs_per_trial", Unit: "count", Better: lower},
	{Name: "core.alloc_kb_per_trial", Unit: "kB", Better: lower},
	{Name: "core.dedup_trials", Unit: "count", Better: higher, Exact: true},
	{Name: "core.exp_s", Unit: "s", Better: lower},
	{Name: "core.paper_err_pct", Unit: "%", Better: lower, Exact: true},

	{Name: "sim.run_s", Unit: "s", Better: lower},
	{Name: "sim.events", Unit: "count", Better: lower, Exact: true},
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.events_per_sim_s", Unit: "1/s", Better: lower, Exact: true},

	{Name: "cfs.run_s", Unit: "s", Better: lower},
	{Name: "ule.run_s", Unit: "s", Better: lower},
	{Name: "cfs.ns_per_event", Unit: "ns", Better: lower},
	{Name: "ule.ns_per_event", Unit: "ns", Better: lower},
	{Name: "cfs.ctx_switches", Unit: "count", Better: lower, Exact: true},
	{Name: "ule.ctx_switches", Unit: "count", Better: lower, Exact: true},
	{Name: "cfs.migrations", Unit: "count", Better: lower, Exact: true},
	{Name: "ule.migrations", Unit: "count", Better: lower, Exact: true},

	{Name: "probe.on_cost", Unit: "x", Better: lower},
	{Name: "dtrace.on_cost", Unit: "x", Better: lower},
	{Name: "timeline.on_cost", Unit: "x", Better: lower},
	{Name: "dtrace.decisions", Unit: "count", Better: lower, Exact: true},
	{Name: "dtrace.bytes", Unit: "bytes", Better: lower, Exact: true},
	{Name: "dtrace.mallocs_per_decision", Unit: "count", Better: lower},
	{Name: "timeline.slices", Unit: "count", Better: lower, Exact: true},
	{Name: "timeline.perfetto_bytes", Unit: "bytes", Better: lower, Exact: true},

	{Name: "memo.hits", Unit: "count", Better: higher, Exact: true},
	{Name: "memo.misses", Unit: "count", Better: lower, Exact: true},
	{Name: "memo.hit_frac", Unit: "frac", Better: higher, Exact: true},
	{Name: "memo.stores", Unit: "count", Better: lower, Exact: true},
	{Name: "memo.bytes_stored", Unit: "bytes", Better: lower, Exact: true},
	{Name: "memo.store_cost_s", Unit: "s", Better: lower},
	{Name: "memo.disk_read_s", Unit: "s", Better: lower},
	{Name: "memo.decode_s", Unit: "s", Better: lower},

	{Name: "stats.bootstrap_calls", Unit: "count", Better: lower, Exact: true},
	{Name: "stats.bootstrap_s", Unit: "s", Better: lower},

	{Name: "battle.cells", Unit: "count", Better: lower, Exact: true},
	{Name: "battle.regressions", Unit: "count", Better: lower, Exact: true},
	{Name: "battle.infer_self_s", Unit: "s", Better: lower},
	{Name: "battle.markdown_s", Unit: "s", Better: lower},
	{Name: "battle.markdown_bytes", Unit: "bytes", Better: lower, Exact: true},

	{Name: "runner.speedup_j2", Unit: "x", Better: higher},
	{Name: "runner.busy_frac", Unit: "frac", Better: lower},

	{Name: "cli.check_cold_s", Unit: "s", Better: lower},
	{Name: "bench.build_s", Unit: "s", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
}

// measured is one reported value. Timings measured once per pass carry
// their dispersion beside the median.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// P90 is set once a run has the hundred samples that put ten beyond it.
	P90 float64 `json:"p90,omitempty"`
	// Samples are the per-pass values in pass order, kept in the result
	// files so that drift within a run can be told from noise.
	Samples []float64 `json:"samples,omitempty"`
}

// summarize reports xs as median with quartiles.
func summarize(xs []float64, unit string) measured {
	m := measured{Value: quantile(xs, 0.5), Unit: unit, N: len(xs), Samples: xs}
	if len(xs) >= 2 {
		m.Q1, m.Q3 = quantile(xs, 0.25), quantile(xs, 0.75)
	}
	if len(xs) >= 100 {
		m.P90 = quantile(xs, 0.9)
	}
	return m
}

// spread is the distance between the quartiles as a share of the median.
func (m measured) spread() float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Value)
}

// quantile interpolates at rank p·(n+1), the exclusive method of Python's
// statistics.quantiles, which the driver judges spreads with.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p*float64(n+1) - 1
	switch {
	case pos <= 0:
		return s[0]
	case pos >= float64(n-1):
		return s[n-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
