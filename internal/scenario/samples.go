package scenario

// The report→sample adapter for the battle subsystem: replication seed
// axes, spec cloning with a replaced seed axis, and a stable metric
// namespace over TrialReport so per-seed values can be collected into
// inference samples. internal/battle builds on these; scenario stays
// ignorant of verdicts and confidence intervals.

import (
	"fmt"
	"strings"
)

// Metric direction: whether larger or smaller values win a comparison.
const (
	Higher = "higher"
	Lower  = "lower"
)

// MetricDef names one battle metric and its winning direction.
type MetricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// ReplicationSeeds extends the spec's seed axis to n entries: the spec's
// own seeds come first (the author's pinned replications), then the
// smallest positive integers not already present fill the remainder. The
// result is a pure function of (spec.Seeds, n), so a battle run is
// reproducible from the spec alone.
func (s *Spec) ReplicationSeeds(n int) []int64 {
	if n < 1 {
		n = 1
	}
	seeds := make([]int64, 0, n)
	used := make(map[int64]bool, n)
	for _, sd := range s.Seeds {
		if len(seeds) == n {
			break
		}
		if !used[sd] {
			used[sd] = true
			seeds = append(seeds, sd)
		}
	}
	for next := int64(1); len(seeds) < n; next++ {
		if !used[next] {
			used[next] = true
			seeds = append(seeds, next)
		}
	}
	return seeds
}

// WithSeeds returns a copy of the spec with its seed axis replaced — the
// replication driver's way of widening a scenario to n seeds without
// mutating the loaded spec. When the source spec is already validated and
// the new seeds are valid, the copy stays validated and *shares* the
// resolved-scheduler slice: resolution doesn't depend on the seed axis,
// downstream consumers copy the parameter structs by value
// (core.NewScheduler), and a validated spec never rewrites the slice — so
// one decode of the overrides serves every replication. Otherwise the copy
// drops the resolution and revalidates lazily (Compile calls Validate) with
// its own fresh slice, leaving the original's untouched.
//
// The copy is a sample grid: replications are read through
// TrialReport.Metrics and MetricValue, so each trial report is its metric
// vector. It keeps the identity fields (Name, Cores, Scheduler, Seed,
// Scale, WindowS, Events), Throughput, Latency, Counters and Derived, each
// equal to the plain spec's at the same seed (Derived is still computed
// from the trial's probes, recorders and fault plan); Series, CoreUtil,
// Faults, Trace, Timeline, TraceData and TimelineData are never built. Its
// trace and timeline blocks attach their recorders in accounting mode
// (dtrace.AttachAccounting, timeline.AttachAccounting). Series, summaries
// and streams come from running the plain spec (`schedbattle -scenario`);
// the two never share a cache entry.
func (s *Spec) WithSeeds(seeds []int64) *Spec {
	clone := *s
	clone.sampleGrid = true
	clone.Seeds = append([]int64(nil), seeds...)
	for _, sd := range seeds {
		if sd < 0 {
			clone.validated = false
		}
	}
	if !clone.validated {
		clone.resolved = nil
	}
	return &clone
}

// globalMetrics is the fixed whole-trial metric order: throughput first,
// then the merged-latency distribution from centre to tail.
var globalMetrics = []MetricDef{
	{Name: "ops_per_sec", Better: Higher},
	{Name: "mean_us", Better: Lower},
	{Name: "p50_us", Better: Lower},
	{Name: "p95_us", Better: Lower},
	{Name: "p99_us", Better: Lower},
	{Name: "max_us", Better: Lower},
}

// entryMetric recognises the per-entry tail metric "p99_us[<label>]" and
// returns the label.
func entryMetric(name string) (label string, ok bool) {
	if strings.HasPrefix(name, "p99_us[") && strings.HasSuffix(name, "]") {
		return name[len("p99_us[") : len(name)-1], true
	}
	return "", false
}

// Metrics lists the battle metrics this trial report exposes, in stable
// order: the global metrics it recorded, then the series-derived
// transient metrics (convergence_us, startup_p95_us — present when the
// spec's series block attached the runq probe), then a per-entry tail
// metric "p99_us[<label>]" for every workload entry with a latency
// distribution (the paper's per-workload headline numbers — e.g. the web
// entry's p99 under batch pressure), in workload order.
func (tr *TrialReport) Metrics() []MetricDef {
	var defs []MetricDef
	for _, d := range globalMetrics {
		if _, ok := tr.MetricValue(d.Name); ok {
			defs = append(defs, d)
		}
	}
	for _, d := range derivedMetrics {
		if _, ok := tr.MetricValue(d.Name); ok {
			defs = append(defs, d)
		}
	}
	if tr.Throughput != nil {
		for _, e := range tr.Throughput.Entries {
			if e.Latency != nil {
				defs = append(defs, MetricDef{Name: fmt.Sprintf("p99_us[%s]", e.Label), Better: Lower})
			}
		}
	}
	return defs
}

// MetricValue reads one named metric out of the trial report. It reports
// false when the metric's section was not selected or recorded — battle
// cells only form over metrics every replication of a group recorded.
func (tr *TrialReport) MetricValue(name string) (float64, bool) {
	if label, ok := entryMetric(name); ok {
		if tr.Throughput == nil {
			return 0, false
		}
		for _, e := range tr.Throughput.Entries {
			if e.Label == label && e.Latency != nil {
				return e.Latency.P99US, true
			}
		}
		return 0, false
	}
	if v, ok := tr.Derived[name]; ok {
		return v, true
	}
	switch name {
	case "ops_per_sec":
		if tr.Throughput == nil {
			return 0, false
		}
		return tr.Throughput.OpsPerSec, true
	case "mean_us":
		if tr.Latency == nil {
			return 0, false
		}
		return tr.Latency.MeanUS, true
	case "p50_us":
		if tr.Latency == nil {
			return 0, false
		}
		return tr.Latency.P50US, true
	case "p95_us":
		if tr.Latency == nil {
			return 0, false
		}
		return tr.Latency.P95US, true
	case "p99_us":
		if tr.Latency == nil {
			return 0, false
		}
		return tr.Latency.P99US, true
	case "max_us":
		if tr.Latency == nil {
			return 0, false
		}
		return tr.Latency.MaxUS, true
	}
	return 0, false
}
