package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/fault"
	"repro/internal/probe"
	"repro/internal/timeline"
	"repro/internal/ule"
	"repro/internal/workload"
)

// Metric names a report section a scenario can select.
const (
	MetricThroughput  = "throughput"
	MetricLatency     = "latency"
	MetricCounters    = "counters"
	MetricUtilization = "utilization"
)

// AllMetrics lists every metric selection, in report order.
var AllMetrics = []string{MetricThroughput, MetricLatency, MetricCounters, MetricUtilization}

// resolvedSched is a scheduler sweep cell after validation: a concrete
// registered kind plus decoded parameter overrides.
type resolvedSched struct {
	kind core.SchedulerKind
	ule  *ule.Params
	cfs  *cfs.Params
}

// maxEntries bounds the workload mix, and maxCount the instances one entry
// may spawn — generous for any real scenario, small enough to catch typos
// (a count of 1e9 is a mistake, not a workload).
const (
	maxEntries = 256
	maxCount   = 100000
)

// Series-block bounds: the default retains half a thousand points per
// series (a 12 s window at the default 250 ms-at-scale-1 cadence never
// downsamples), and the cap keeps a wide sweep's report a few MB at most.
const (
	defaultSeriesCapacity = 512
	maxSeriesCapacity     = 65536
)

// editDistance is the Levenshtein distance between a and b — small
// strings only (metric and probe names), so the O(len²) table is fine.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// cleanName rejects characters that would corrupt downstream renderings
// of a name — trial names in CSV rows and series names both embed it, so
// commas, quotes, and control characters are out.
func cleanName(s string) bool {
	for _, r := range s {
		if r == ',' || r == '"' || r < 0x20 {
			return false
		}
	}
	return true
}

// suggest returns a did-you-mean clause for a near-miss of name against
// known, or "" when nothing is plausibly close.
func suggest(name string, known []string) string {
	best, bestD := "", 4 // only suggest within edit distance 3
	for _, k := range known {
		if d := editDistance(name, k); d < bestD {
			best, bestD = k, d
		}
	}
	if best == "" || bestD >= len(name) {
		return ""
	}
	return fmt.Sprintf(" (did you mean %q?)", best)
}

// checkNames checks a list field against its known namespace: each entry
// of names (at pos.field[i]) must be in known — a near miss gets a
// did-you-mean — and may appear once. what names an entry in messages
// ("probe", "column group").
func checkNames(pos, field, what string, names, known []string) error {
	seen := map[string]bool{}
	for i, name := range names {
		npos := fmt.Sprintf("%s.%s[%d]", pos, field, i)
		if !slices.Contains(known, name) {
			return verr(npos, "unknown %s %q%s (known: %s)",
				what, name, suggest(name, known), strings.Join(known, ", "))
		}
		if seen[name] {
			return verr(npos, "%s %q listed twice", what, name)
		}
		seen[name] = true
	}
	return nil
}

// Validate checks the spec and resolves scheduler kinds and parameter
// overrides. Errors are *Error values positioned at the offending field's
// spec path. Validate is idempotent and caches success: a spec validates
// once, and every later call — each Compile of a replication sweep, every
// trial grid built from a shared bundled spec — returns immediately
// without re-decoding overrides or touching the resolved slice (which
// spec copies may share).
func (s *Spec) Validate() error {
	if s.validated {
		return nil
	}
	if strings.TrimSpace(s.Name) == "" {
		return verr("name", "scenario name is required")
	}
	if !cleanName(s.Name) {
		return verr("name", "name %q must not contain commas, quotes, or control characters", s.Name)
	}
	if s.Window.D() <= 0 {
		return verr("window", "window must be a positive duration")
	}

	if len(s.Machine.Cores) == 0 {
		return verr("machine.cores", "at least one core count is required")
	}
	minCores := s.Machine.Cores[0]
	for i, c := range s.Machine.Cores {
		if c < 1 || c > 1024 {
			return verr(fmt.Sprintf("machine.cores[%d]", i), "core count %d out of range [1, 1024]", c)
		}
		if c < minCores {
			minCores = c
		}
	}

	if err := s.resolveSchedulers(); err != nil {
		return err
	}

	for i, sc := range s.Scales {
		if !(sc > 0 && sc <= 1) {
			return verr(fmt.Sprintf("scales[%d]", i), "scale %g out of range (0, 1]", sc)
		}
	}
	for i, seed := range s.Seeds {
		if seed < 0 {
			return verr(fmt.Sprintf("seeds[%d]", i), "seed %d must be non-negative", seed)
		}
	}

	if len(s.Workload) == 0 {
		return verr("workload", "at least one workload entry is required")
	}
	if len(s.Workload) > maxEntries {
		return verr("workload", "%d entries exceed the limit of %d", len(s.Workload), maxEntries)
	}
	labels := map[string]int{}
	for i := range s.Workload {
		if err := s.Workload[i].validate(fmt.Sprintf("workload[%d]", i), minCores); err != nil {
			return err
		}
		label := s.Workload[i].label(i)
		if prev, dup := labels[label]; dup {
			return verr(fmt.Sprintf("workload[%d].name", i), "label %q already used by workload[%d]", label, prev)
		}
		labels[label] = i
	}

	for i, mName := range s.Metrics {
		if !slices.Contains(AllMetrics, mName) {
			return verr(fmt.Sprintf("metrics[%d]", i), "unknown metric %q%s (known: %s)",
				mName, suggest(mName, AllMetrics), strings.Join(AllMetrics, ", "))
		}
	}

	if s.Series != nil {
		if err := s.Series.validate("series"); err != nil {
			return err
		}
	}

	if len(s.Faults) > maxFaults {
		return verr("faults", "%d fault events exceed the limit of %d", len(s.Faults), maxFaults)
	}
	for i := range s.Faults {
		if err := s.Faults[i].validate(fmt.Sprintf("faults[%d]", i), minCores, s.Window.D()); err != nil {
			return err
		}
	}

	if s.Trace != nil {
		if err := s.Trace.validate("trace"); err != nil {
			return err
		}
	}
	if s.Timeline != nil {
		if err := s.Timeline.validate("timeline"); err != nil {
			return err
		}
	}
	s.validated = true
	return nil
}

// maxFaults bounds the fault block; real scenarios use a handful of
// events, so a large count is a generation bug, not a plan.
const maxFaults = 64

// faultKinds lists the fault mechanisms: internal/fault's Kind constants.
var faultKinds = []string{
	string(fault.CPUOff), string(fault.Throttle), string(fault.Antagonist), string(fault.WakeupStorm),
}

// maxFaultActivations bounds count: repeated activations each schedule
// timer events up front, so a huge count is a typo.
const maxFaultActivations = 1024

// validate checks one fault event. minCores bounds core targeting on the
// smallest swept machine; window is the spec's scale-1 window, inside
// which the first activation must fall.
func (f *FaultSpec) validate(pos string, minCores int, window time.Duration) error {
	if !slices.Contains(faultKinds, f.Kind) {
		return verr(pos+".kind", "unknown fault kind %q%s (known: %s)",
			f.Kind, suggest(f.Kind, faultKinds), strings.Join(faultKinds, ", "))
	}
	kind := fault.Kind(f.Kind)
	if f.At.D() <= 0 {
		return verr(pos+".at", "at must be a positive duration")
	}
	if f.At.D() >= window {
		return verr(pos+".at", "at %s is outside the %s window — the fault would never fire", f.At.D(), window)
	}
	if f.Duration.D() < 0 {
		return verr(pos+".duration", "duration must not be negative")
	}
	if f.Count < 0 || f.Count > maxFaultActivations {
		return verr(pos+".count", "count %d out of range [1, %d]", f.Count, maxFaultActivations)
	}
	if f.Count > 1 {
		if f.Period.D() <= 0 {
			return verr(pos+".period", "period is required when count > 1")
		}
		if f.Duration.D() > 0 && f.Period.D() < f.Duration.D() {
			return verr(pos+".period", "period %s must not be shorter than duration %s — activations would overlap", f.Period.D(), f.Duration.D())
		}
	} else if f.Period.D() != 0 {
		return verr(pos+".period", "period requires count > 1")
	}
	if f.Nice < -20 || f.Nice > 19 {
		return verr(pos+".nice", "nice %d out of range [-20, 19]", f.Nice)
	}

	// Field applicability per kind, mirroring the style of entry
	// validation: a set-but-ignored field is a spec mistake.
	threaded := kind == fault.Antagonist || kind == fault.WakeupStorm
	if !threaded {
		if f.Threads != 0 {
			return verr(pos+".threads", "threads applies to antagonist and wakeup_storm only")
		}
		if f.Burst.D() != 0 {
			return verr(pos+".burst", "burst applies to antagonist and wakeup_storm only")
		}
		if f.Nice != 0 {
			return verr(pos+".nice", "nice applies to antagonist and wakeup_storm only")
		}
	}
	if kind != fault.Throttle && f.Factor != 0 {
		return verr(pos+".factor", "factor applies to throttle only")
	}
	if threaded && len(f.Cores) > 0 {
		return verr(pos+".cores", "cores applies to cpu_off and throttle only")
	}

	switch kind {
	case fault.CPUOff, fault.Throttle:
		if kind == fault.CPUOff && len(f.Cores) == 0 {
			return verr(pos+".cores", "cpu_off requires at least one target core")
		}
		seen := map[int]bool{}
		for i, c := range f.Cores {
			cpos := fmt.Sprintf("%s.cores[%d]", pos, i)
			if c < 0 || c >= minCores {
				return verr(cpos, "core %d out of range [0, %d) on the smallest swept machine", c, minCores)
			}
			if seen[c] {
				return verr(cpos, "core %d listed twice", c)
			}
			seen[c] = true
		}
		if kind == fault.CPUOff && len(f.Cores) >= minCores {
			return verr(pos+".cores", "offlining %d cores leaves nothing online on the smallest swept machine (%d cores)", len(f.Cores), minCores)
		}
		if kind == fault.Throttle && !(f.Factor >= 0.01 && f.Factor <= 1) {
			return verr(pos+".factor", "factor %g out of range [0.01, 1]", f.Factor)
		}
	case fault.Antagonist, fault.WakeupStorm:
		if f.Threads < 1 {
			return verr(pos+".threads", "threads must be at least 1")
		}
		if f.Threads > maxCount {
			return verr(pos+".threads", "threads %d out of range [1, %d]", f.Threads, maxCount)
		}
		if f.Burst.D() <= 0 {
			return verr(pos+".burst", "burst must be a positive duration")
		}
		if kind == fault.WakeupStorm && f.Duration.D() != 0 {
			return verr(pos+".duration", "wakeup_storm is instantaneous — duration does not apply")
		}
	}
	return nil
}

// validate checks the series telemetry block: every probe name must be a
// known built-in (near-misses get a did-you-mean), and cadence/capacity
// must be sane.
func (ss *SeriesSpec) validate(pos string) error {
	if len(ss.Probes) == 0 {
		return verr(pos+".probes", "at least one probe is required (known: %s)", strings.Join(probe.Names(), ", "))
	}
	if err := checkNames(pos, "probes", "probe", ss.Probes, probe.Names()); err != nil {
		return err
	}
	if ss.Cadence.D() < 0 {
		return verr(pos+".cadence", "cadence must not be negative")
	}
	if ss.Capacity < 0 || ss.Capacity > maxSeriesCapacity {
		return verr(pos+".capacity", "capacity %d out of range [1, %d]", ss.Capacity, maxSeriesCapacity)
	}
	return nil
}

// validate checks the decision-trace block. Bounds mirror the ranges
// dtrace.Options enforces at Attach, so a validated spec's recorder
// always attaches; column groups get the same did-you-mean treatment as
// probe names.
func (ts *TraceSpec) validate(pos string) error {
	if ts.Sample < 0 || ts.Sample > 1_000_000 {
		return verr(pos+".sample", "sample %d out of range [1, 1000000]", ts.Sample)
	}
	if ts.Window < 0 || ts.Window > dtrace.MaxWindow {
		return verr(pos+".window", "window %d out of range [1, %d]", ts.Window, dtrace.MaxWindow)
	}
	if ts.Branch < 0 || ts.Branch > dtrace.MaxBranch {
		return verr(pos+".branch", "branch %d out of range [1, %d]", ts.Branch, dtrace.MaxBranch)
	}
	if ts.MaxBytes < 0 || (ts.MaxBytes > 0 && ts.MaxBytes < 4096) {
		return verr(pos+".maxBytes", "maxBytes %d too small (min 4096)", ts.MaxBytes)
	}
	return checkNames(pos, "columns", "column group", ts.Columns, dtrace.ColumnGroups())
}

// validate checks the thread-state timeline block. Bounds mirror what
// timeline.Options enforces at Attach, so a validated spec's recorder
// always attaches; Perfetto track groups get the same did-you-mean
// treatment as probe names and trace columns. Classes are free-form
// (workload entry names, app labels, "kworker") — only shape-checked.
func (tl *TimelineSpec) validate(pos string) error {
	seenClass := map[string]bool{}
	for i, name := range tl.Classes {
		cpos := fmt.Sprintf("%s.classes[%d]", pos, i)
		if name == "" {
			return verr(cpos, "class name must not be empty")
		}
		if seenClass[name] {
			return verr(cpos, "class %q listed twice", name)
		}
		seenClass[name] = true
	}
	if tl.MaxBytes < 0 || (tl.MaxBytes > 0 && tl.MaxBytes < 4096) {
		return verr(pos+".maxBytes", "maxBytes %d too small (min 4096)", tl.MaxBytes)
	}
	return checkNames(pos, "perfetto", "track group", tl.Perfetto, timeline.TrackGroups())
}

// resolveSchedulers expands "*" and decodes parameter overrides into
// s.resolved.
func (s *Spec) resolveSchedulers() error {
	if len(s.Schedulers) == 0 {
		return verr("schedulers", "at least one scheduler is required")
	}
	s.resolved = s.resolved[:0]
	registered := core.SchedulerKinds()
	seen := map[core.SchedulerKind]bool{}
	for i, sp := range s.Schedulers {
		pos := fmt.Sprintf("schedulers[%d]", i)
		if sp.Kind == "" {
			return verr(pos+".kind", "scheduler kind is required")
		}
		if sp.Kind == "*" {
			if len(s.Schedulers) != 1 {
				return verr(pos+".kind", `"*" must be the only scheduler entry`)
			}
			if len(sp.ULE) > 0 || len(sp.CFS) > 0 {
				return verr(pos, `parameter overrides cannot be combined with kind "*"`)
			}
			for _, k := range registered {
				s.resolved = append(s.resolved, resolvedSched{kind: k})
			}
			return nil
		}
		kind := core.SchedulerKind(sp.Kind)
		if !slices.Contains(registered, kind) {
			return verr(pos+".kind", "unknown scheduler kind %q (registered: %v)", sp.Kind, registered)
		}
		if seen[kind] {
			return verr(pos+".kind", "scheduler kind %q listed twice", sp.Kind)
		}
		seen[kind] = true

		rs := resolvedSched{kind: kind}
		if len(sp.ULE) > 0 {
			if !strings.HasPrefix(sp.Kind, "ule") {
				return verr(pos+".ule", "ULE parameter overrides are invalid for kind %q", sp.Kind)
			}
			p := ule.DefaultParams()
			if err := decodeParams(sp.ULE, &p); err != nil {
				return verr(pos+".ule", "%v", err)
			}
			rs.ule = &p
		}
		if len(sp.CFS) > 0 {
			if !strings.HasPrefix(sp.Kind, "cfs") {
				return verr(pos+".cfs", "CFS parameter overrides are invalid for kind %q", sp.Kind)
			}
			p := cfs.DefaultParams()
			if err := decodeParams(sp.CFS, &p); err != nil {
				return verr(pos+".cfs", "%v", err)
			}
			rs.cfs = &p
		}
		s.resolved = append(s.resolved, rs)
	}
	return nil
}

// decodeParams strictly decodes a partial override object over defaults.
func decodeParams(raw json.RawMessage, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("%s", strings.TrimPrefix(err.Error(), "json: "))
	}
	return nil
}

// validate checks one workload entry. minCores is the smallest swept core
// count, the bound pinning must respect on every machine of the sweep.
func (e *Entry) validate(pos string, minCores int) error {
	kinds := 0
	if e.App != "" {
		kinds++
	}
	if e.Loop != nil {
		kinds++
	}
	if e.Finite != nil {
		kinds++
	}
	if e.OpenLoop != nil {
		kinds++
	}
	if kinds != 1 {
		return verr(pos, "exactly one of app, loop, finite, or openloop is required (got %d)", kinds)
	}
	if !cleanName(e.Name) {
		return verr(pos+".name", "name %q must not contain commas, quotes, or control characters", e.Name)
	}
	if e.Count < 0 || e.Count > maxCount {
		return verr(pos+".count", "count %d out of range [1, %d]", e.Count, maxCount)
	}
	if e.StartAt.D() < 0 {
		return verr(pos+".startAt", "startAt must not be negative")
	}
	if e.Nice < -20 || e.Nice > 19 {
		return verr(pos+".nice", "nice %d out of range [-20, 19]", e.Nice)
	}

	if e.App != "" {
		if _, err := apps.ByName(e.App); err != nil {
			return verr(pos+".app", "unknown application %q", e.App)
		}
		if len(e.Pinned) > 0 {
			return verr(pos+".pinned", "pinning applies to primitives only, not app entries")
		}
		if e.Nice != 0 {
			return verr(pos+".nice", "nice applies to primitives only, not app entries")
		}
		return nil
	}

	for i, c := range e.Pinned {
		if c < 0 || c >= minCores {
			return verr(fmt.Sprintf("%s.pinned[%d]", pos, i), "core %d out of range [0, %d) on the smallest swept machine", c, minCores)
		}
	}

	switch {
	case e.Loop != nil:
		if e.Loop.Burst.D() <= 0 {
			return verr(pos+".loop.burst", "burst must be a positive duration")
		}
		if e.Loop.JitterPct < 0 || e.Loop.JitterPct > 100 {
			return verr(pos+".loop.jitterPct", "jitterPct %d out of range [0, 100]", e.Loop.JitterPct)
		}
	case e.Finite != nil:
		if e.Finite.Burst.D() <= 0 {
			return verr(pos+".finite.burst", "burst must be a positive duration")
		}
		if e.Finite.N < 1 {
			return verr(pos+".finite.n", "n must be at least 1")
		}
		if e.Finite.JitterPct < 0 || e.Finite.JitterPct > 100 {
			return verr(pos+".finite.jitterPct", "jitterPct %d out of range [0, 100]", e.Finite.JitterPct)
		}
		if e.Finite.IOSleep.D() < 0 {
			return verr(pos+".finite.ioSleep", "ioSleep must not be negative")
		}
	case e.OpenLoop != nil:
		ol := e.OpenLoop
		if ol.Workers < 1 {
			return verr(pos+".openloop.workers", "workers must be at least 1")
		}
		if (ol.Rate > 0) == (ol.Interarrival.D() > 0) {
			return verr(pos+".openloop", "exactly one of rate and interarrival is required")
		}
		if ol.Rate < 0 {
			return verr(pos+".openloop.rate", "rate must be positive")
		}
		// The mean inter-arrival time is 1s/rate; past 1e9 req/s it
		// truncates to zero nanoseconds.
		if ol.Rate > 1e9 {
			return verr(pos+".openloop.rate", "rate %g exceeds 1e9 requests/second", ol.Rate)
		}
		if ol.Dist != "" && !workload.ValidDist(workload.ArrivalDist(ol.Dist)) {
			return verr(pos+".openloop.dist", "unknown distribution %q (known: poisson, uniform, periodic)", ol.Dist)
		}
		if ol.Service.D() <= 0 {
			return verr(pos+".openloop.service", "service must be a positive duration")
		}
		if ol.ServiceJitterPct < 0 || ol.ServiceJitterPct > 100 {
			return verr(pos+".openloop.serviceJitterPct", "serviceJitterPct %d out of range [0, 100]", ol.ServiceJitterPct)
		}
	}
	return nil
}

// count returns the entry's instance count (default 1).
func (e *Entry) count() int {
	if e.Count <= 0 {
		return 1
	}
	return e.Count
}

// label returns the entry's report label: the explicit name, the app name,
// or "<primitive><index>".
func (e *Entry) label(i int) string {
	if e.Name != "" {
		return e.Name
	}
	switch {
	case e.App != "":
		return e.App
	case e.Loop != nil:
		return fmt.Sprintf("loop%d", i)
	case e.Finite != nil:
		return fmt.Sprintf("finite%d", i)
	default:
		return fmt.Sprintf("openloop%d", i)
	}
}

// wants reports whether metric m is selected (empty Metrics = all).
func (s *Spec) wants(m string) bool {
	return len(s.Metrics) == 0 || slices.Contains(s.Metrics, m)
}
