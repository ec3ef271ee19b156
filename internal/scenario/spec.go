// Package scenario is the declarative workload layer: JSON scenario specs
// describing machine topology, scheduler kinds with parameter overrides, a
// workload mix (catalog applications plus raw workload primitives and
// open-loop traffic sources), sweep axes, and a metrics selection. Specs are
// validated with precise error positions, compiled into core.Trial grids
// executed on the shared runner pool (byte-identical at any -jobs width),
// and summarised as structured JSON reports. A bundled library of scenarios
// ships embedded in the binary (see library.go); EXPERIMENTS.md documents
// the schema for authoring new ones.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Spec is one declarative scenario. The sweep axes — machine.cores ×
// scales × schedulers × seeds — expand to one trial per cell; every trial
// runs the same workload mix for the (scaled) window and reports the
// selected metrics.
type Spec struct {
	// Name identifies the scenario; it prefixes trial names and so keys
	// derived per-trial seeds.
	Name string `json:"name"`
	// Description is free-form documentation, echoed into reports.
	Description string `json:"description,omitempty"`
	// Machine configures the simulated box (cores is a sweep axis).
	Machine MachineSpec `json:"machine"`
	// Schedulers lists the scheduling classes to sweep; {"kind": "*"}
	// expands to every registered kind.
	Schedulers []SchedSpec `json:"schedulers"`
	// Seeds is the seed sweep axis; empty means one derived-seed run.
	Seeds []int64 `json:"seeds,omitempty"`
	// Scales is the duration-scale sweep axis in (0,1]; empty means [1].
	// The CLI's -scale multiplies each entry.
	Scales []float64 `json:"scales,omitempty"`
	// Window is the simulated measurement window at scale 1.
	Window Dur `json:"window"`
	// Workload is the mix installed on every trial's machine.
	Workload []Entry `json:"workload"`
	// Metrics selects report sections (throughput, latency, counters,
	// utilization); empty selects all.
	Metrics []string `json:"metrics,omitempty"`
	// Series attaches telemetry probes (internal/probe) to every trial
	// and embeds the recorded time series — plus derived transient
	// metrics like convergence_us — in the report.
	Series *SeriesSpec `json:"series,omitempty"`
	// Faults injects deterministic perturbations (internal/fault) into
	// every trial: CPU hotplug, throttling, antagonists, wakeup storms.
	// Times are written at scale 1 and keep their position relative to
	// the window as it scales. With a runq series attached, the report
	// gains recovery_us and degraded_ops_per_sec derived metrics.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Trace attaches a decision-trace recorder (internal/dtrace) to every
	// trial: per-pick/wake/migrate/steal records in the columnar dtrace/v1
	// format (exported by the CLI's -trace/-trace-csv), a trace summary in
	// the report, and the oracle headroom analyzer's headroom_pct derived
	// metric.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Timeline attaches a thread-state flight recorder (internal/timeline)
	// to every trial: per-thread time-in-state accounting, per-wakeup
	// dispatch-latency histograms (run_frac/wait_frac/sleep_frac and
	// sched_latency_p99_us derived metrics), and a Perfetto-compatible
	// trace-event export via the CLI's -timeline/-timehist.
	Timeline *TimelineSpec `json:"timeline,omitempty"`

	// resolved is filled by Validate: scheduler entries with "*" expanded
	// and parameter overrides decoded. Once validated is set the slice is
	// read-only, so spec copies (WithSeeds) share it — the decoded
	// parameter overrides are compiled once however many replications run.
	resolved  []resolvedSched
	validated bool
	// sampleGrid marks the view WithSeeds returns: a replicated grid read
	// for its metrics only. Its trace and timeline recorders attach in
	// accounting mode and its trial reports are metric vectors — identity,
	// Throughput, Latency, Counters, Derived; no series, summaries or
	// streams (samples.go, extract); the flag is part of the cell
	// fingerprint (memo.go).
	sampleGrid bool
}

// MachineSpec configures the simulated machine.
type MachineSpec struct {
	// Cores lists the core counts to sweep (1 = single core, 8 = the
	// desktop box, 32 = the paper's NUMA machine, anything else a flat
	// single-node topology — core.MachineConfig.Topology's mapping).
	Cores []int `json:"cores"`
	// KernelNoise starts per-core kworker threads, as the multicore paper
	// experiments do.
	KernelNoise bool `json:"kernelNoise,omitempty"`
}

// SchedSpec selects one scheduler kind, optionally overriding its tunables.
// Overrides are partial JSON objects decoded over the scheduler's defaults;
// durations are nanosecond numbers (Go time.Duration), e.g.
// {"kind": "ule", "ule": {"SliceTicks": 20}}.
type SchedSpec struct {
	Kind string `json:"kind"`
	// ULE overrides ule.Params fields; valid only for "ule*" kinds.
	ULE json.RawMessage `json:"ule,omitempty"`
	// CFS overrides cfs.Params fields; valid only for "cfs*" kinds.
	CFS json.RawMessage `json:"cfs,omitempty"`
}

// Entry is one workload-mix line. Exactly one of App, Loop, Finite, or
// OpenLoop must be set; Count, StartAt, Pinned, and Nice apply to every
// instance the entry spawns (Pinned and Nice to primitives only — catalog
// applications manage their own threads).
type Entry struct {
	// Name labels the entry in reports; defaults to "<kind><index>".
	Name string `json:"name,omitempty"`
	// App names a catalog application (apps.ByName).
	App string `json:"app,omitempty"`
	// Loop runs endless CPU bursts (workload.Loop).
	Loop *LoopSpec `json:"loop,omitempty"`
	// Finite runs N bursts then exits (workload.FiniteCompute).
	Finite *FiniteSpec `json:"finite,omitempty"`
	// OpenLoop serves a generated request stream at a fixed offered load.
	OpenLoop *OpenLoopSpec `json:"openloop,omitempty"`
	// Count is the number of instances (default 1).
	Count int `json:"count,omitempty"`
	// StartAt delays the entry's start (apps additionally floor at the
	// 2 s shell warmup).
	StartAt Dur `json:"startAt,omitempty"`
	// Pinned restricts primitive threads to these cores from birth.
	Pinned []int `json:"pinned,omitempty"`
	// Nice is the primitive threads' nice value.
	Nice int `json:"nice,omitempty"`
}

// SeriesSpec is the scenario's telemetry block: which built-in probes to
// attach (probe.Names lists the namespace), how often to sample, and how
// many points each series may retain before halving its resolution.
type SeriesSpec struct {
	// Probes lists built-in probe names ("runq", "util", "runqlat", ...).
	Probes []string `json:"probes"`
	// Cadence is the sampling period at scale 1 (default 250ms). It is
	// multiplied by the trial's effective scale so the sample count stays
	// roughly constant as windows shrink, floored at 50µs.
	Cadence Dur `json:"cadence,omitempty"`
	// Capacity bounds each series' retained points (default 512, max
	// 65536); on overflow a series halves its resolution deterministically.
	Capacity int `json:"capacity,omitempty"`
}

// TraceSpec is the scenario's decision-trace block. All fields are
// optional; the zero value records every decision with all columns into a
// 32 MiB-capped stream per trial and analyzes headroom at the default
// window. Field semantics and bounds mirror dtrace.Options.
type TraceSpec struct {
	// Sample records every Sample-th decision of each kind (default 1 =
	// every decision).
	Sample int `json:"sample,omitempty"`
	// Window is the headroom analyzer's search window in wake decisions
	// (default 8, max 16).
	Window int `json:"window,omitempty"`
	// Branch is the headroom search's per-decision branching (default 4,
	// max 8).
	Branch int `json:"branch,omitempty"`
}

// TimelineSpec is the scenario's thread-state timeline block. It has no
// field: "timeline": {} records every thread with every Perfetto track
// into a 32 MiB-capped event buffer per trial.
type TimelineSpec struct{}

// FaultSpec is one declarative perturbation line (see internal/fault for
// the mechanisms). All durations are written at scale 1; compilation
// rescales them with the window so the perturbation→recovery structure
// survives aggressive CLI -scale values.
type FaultSpec struct {
	// Kind is the fault mechanism: "cpu_off", "throttle", "antagonist",
	// or "wakeup_storm".
	Kind string `json:"kind"`
	// At is when the first activation strikes; must fall inside the
	// window.
	At Dur `json:"at"`
	// Duration is each activation's active window; zero means until the
	// end of the run. Storms are instantaneous and must not set it.
	Duration Dur `json:"duration,omitempty"`
	// Cores targets cpu_off (required — and must leave at least one core
	// online on the smallest swept machine) and throttle (empty = all).
	Cores []int `json:"cores,omitempty"`
	// Factor is the throttle speed factor in [0.01, 1].
	Factor float64 `json:"factor,omitempty"`
	// Threads is the antagonist / storm-sleeper gang size.
	Threads int `json:"threads,omitempty"`
	// Burst is CPU per antagonist iteration / per storm wake. Bursts are
	// work granularity, like workload bursts, so they do not scale.
	Burst Dur `json:"burst,omitempty"`
	// Period separates repeated activations; required iff count > 1.
	Period Dur `json:"period,omitempty"`
	// Count is the number of activations (default 1).
	Count int `json:"count,omitempty"`
	// Nice is the antagonist/storm threads' niceness.
	Nice int `json:"nice,omitempty"`
}

// LoopSpec parameterises an endless compute loop.
type LoopSpec struct {
	Burst     Dur `json:"burst"`
	JitterPct int `json:"jitterPct,omitempty"`
}

// FiniteSpec parameterises a run-to-completion compute job.
type FiniteSpec struct {
	Burst     Dur `json:"burst"`
	N         int `json:"n"`
	JitterPct int `json:"jitterPct,omitempty"`
	IOSleep   Dur `json:"ioSleep,omitempty"`
}

// OpenLoopSpec parameterises an open-loop request-serving entry: Workers
// threads drain a queue fed at the offered load, and every request's
// arrival-to-completion latency is recorded.
type OpenLoopSpec struct {
	// Workers is the serving thread count.
	Workers int `json:"workers"`
	// Rate is the offered load in requests per simulated second. Exactly
	// one of Rate and Interarrival must be set.
	Rate float64 `json:"rate,omitempty"`
	// Interarrival is the mean inter-arrival time (alternative to Rate).
	Interarrival Dur `json:"interarrival,omitempty"`
	// Dist is the arrival distribution: poisson (default), uniform, or
	// periodic.
	Dist string `json:"dist,omitempty"`
	// Service is one request's CPU demand.
	Service Dur `json:"service"`
	// ServiceJitterPct varies Service per request.
	ServiceJitterPct int `json:"serviceJitterPct,omitempty"`
}

// Dur is a JSON duration written as a Go duration string ("250ms", "1.5s").
type Dur time.Duration

// D returns the duration.
func (d Dur) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON implements json.Unmarshaler, accepting only strings.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like %q, got %s", "250ms", strings.TrimSpace(string(b)))
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("invalid duration %q (want e.g. %q)", s, "250ms")
	}
	*d = Dur(v)
	return nil
}

// MarshalJSON renders the duration back as a string.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Error is a scenario-spec problem with a position: either a file location
// ("3:17", line:column, for JSON syntax and type errors) or a spec path
// ("workload[2].pinned[1]", for semantic validation).
type Error struct {
	// File is the spec's source name ("web-tail.json", a path, or the
	// name handed to Parse); may be empty for programmatic specs.
	File string
	// Pos locates the problem: "line:col" or a spec field path.
	Pos string
	// Msg describes the problem.
	Msg string
}

// Error implements error. File positions attach compiler-style
// ("spec.json:3:17: msg"), spec paths with a separating space
// ("spec.json: workload[2].pinned: msg").
func (e *Error) Error() string {
	var b strings.Builder
	if e.File != "" {
		b.WriteString(e.File)
		if len(e.Pos) > 0 && e.Pos[0] >= '0' && e.Pos[0] <= '9' {
			b.WriteString(":")
		} else {
			b.WriteString(": ")
		}
	}
	if e.Pos != "" {
		b.WriteString(e.Pos)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	return b.String()
}

// verr builds a positioned validation error.
func verr(pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Parse decodes and validates a scenario spec. name labels error messages
// (typically the file path or bundled-scenario name). Unknown fields are
// rejected; syntax and type errors carry line:column positions, semantic
// errors the spec path of the offending field.
func Parse(name string, data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, decodeError(name, data, err)
	}
	// A spec is one JSON document; trailing content is a mistake (e.g. two
	// concatenated specs).
	if dec.More() {
		line, col := lineCol(data, dec.InputOffset())
		return nil, &Error{File: name, Pos: fmt.Sprintf("%d:%d", line, col), Msg: "unexpected data after the scenario object"}
	}
	if err := s.Validate(); err != nil {
		var se *Error
		if errors.As(err, &se) {
			se.File = name
		}
		return nil, err
	}
	return &s, nil
}

// decodeError converts an encoding/json error into a positioned *Error.
func decodeError(name string, data []byte, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		line, col := lineCol(data, syn.Offset)
		return &Error{File: name, Pos: fmt.Sprintf("%d:%d", line, col), Msg: syn.Error()}
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		line, col := lineCol(data, typ.Offset)
		msg := fmt.Sprintf("cannot decode %s into %s", typ.Value, typ.Type)
		if typ.Field != "" {
			msg = fmt.Sprintf("field %s: %s", typ.Field, msg)
		}
		return &Error{File: name, Pos: fmt.Sprintf("%d:%d", line, col), Msg: msg}
	}
	// DisallowUnknownFields and custom unmarshalers (Dur) surface plain
	// errors without offsets; strip encoding/json's prefix and keep the
	// message.
	msg := strings.TrimPrefix(err.Error(), "json: ")
	return &Error{File: name, Msg: msg}
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}
