package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// windowFloor is the minimum measured window for app-free scenarios; specs
// with apps or delayed entries are additionally floored past their latest
// start so aggressive CLI -scale values cannot scale the workload out of
// the window entirely.
const windowFloor = 200 * time.Millisecond

// Compile expands the spec's sweep axes — cores × scales × schedulers ×
// seeds, in that nesting order — into one core.Trial per cell. cliScale
// multiplies every spec scale (both must lie in (0,1]). The trials carry
// everything the report needs; run them with core.RunTrials and hand the
// outcomes to BuildReport.
func (s *Spec) Compile(cliScale float64) ([]core.Trial[TrialReport], error) {
	if !(cliScale > 0 && cliScale <= 1) {
		return nil, fmt.Errorf("scenario: scale %g out of range (0, 1]", cliScale)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	scales := s.Scales
	if len(scales) == 0 {
		scales = []float64{1}
	}
	// The cell-invariant fingerprint prefix is hashed once per compile;
	// buildTrial folds the sweep coordinates per cell (memo.go).
	prefix, cacheable := s.cachePrefix()
	var trials []core.Trial[TrialReport]
	for _, cores := range s.Machine.Cores {
		for _, sc := range scales {
			for _, rs := range s.resolved {
				for _, seed := range seeds {
					t := s.buildTrial(cores, rs, sc*cliScale, seed)
					if cacheable {
						if key, ok := cellFingerprint(prefix, cores, rs, sc*cliScale, seed); ok {
							t.CacheKey = key
							t.Encode = encodeTrialReport
							t.Decode = decodeTrialReport
						}
					}
					trials = append(trials, t)
				}
			}
		}
	}
	return trials, nil
}

// Run compiles the spec, executes the grid on the shared runner pool, and
// assembles the report. Results are byte-identical at any pool width.
// A panicking trial (scheduler invariant, wall-clock watchdog) fails only
// its own cell: its report slot carries the panic message in Error, the
// rest of the grid completes, and Run returns the report TOGETHER with a
// *TrialFailures error — callers that can tolerate partial results keep
// the report; strict callers (battle verdicts) treat the error as fatal.
func (s *Spec) Run(cliScale float64) (*Report, error) {
	trials, err := s.Compile(cliScale)
	if err != nil {
		return nil, err
	}
	out, errs := core.RunTrialsErr(trials)
	for _, te := range errs {
		// Skeleton report for the failed cell. Only the panic value is
		// rendered — stacks carry host-nondeterministic addresses and must
		// never enter byte-compared reports.
		out[te.Index] = TrialReport{Name: te.Name, Error: fmt.Sprintf("%v", te.Value)}
	}
	rep := s.report(cliScale, out)
	if len(errs) > 0 {
		return rep, &TrialFailures{Total: len(trials), Errs: errs}
	}
	return rep, nil
}

// TrialFailures aggregates the failed cells of a partially-successful
// scenario run. The accompanying report is still complete (failed cells
// carry Error); Errs keep the full TrialError values, stacks included,
// for stderr diagnostics.
type TrialFailures struct {
	Total int
	Errs  []*core.TrialError
}

func (f *TrialFailures) Error() string {
	return fmt.Sprintf("%d of %d trials failed; first: %v", len(f.Errs), f.Total, f.Errs[0])
}

// windowFor scales the measurement window, flooring it so every entry still
// starts comfortably inside it.
func (s *Spec) windowFor(scale float64) time.Duration {
	w := time.Duration(float64(s.Window.D()) * scale)
	floor := windowFloor
	for i := range s.Workload {
		e := &s.Workload[i]
		start := e.StartAt.D()
		if e.App != "" && start < apps.ShellWarmup {
			start = apps.ShellWarmup
		}
		if start+windowFloor > floor {
			floor = start + windowFloor
		}
	}
	if w < floor {
		w = floor
	}
	return w
}

// entryState is the per-trial measurement state of one workload entry,
// created when the trial's Workload closure installs the mix and read by
// its Extract.
type entryState struct {
	label   string
	startAt time.Duration
	// tally counts primitive work units; app entries count through their
	// instances instead.
	tally workload.Tally
	// hists are the entry's own latency histograms (one per open-loop
	// queue instance).
	hists []*stats.Histogram
	// insts are the entry's app instances.
	insts []*apps.Instance
}

// seriesCadenceFloor bounds how small scale can shrink the sampling
// period — below this the sampler itself would dominate the event stream.
const seriesCadenceFloor = 50 * time.Microsecond

// options converts the spec's trace block into recorder options. The
// recorder buffers in memory (Sink nil): the encoded stream rides the
// TrialReport into the CLI exporters, keeping trial execution free of
// filesystem effects (and so byte-identical at any -jobs width).
func (ts *TraceSpec) options() dtrace.Options {
	return dtrace.Options{Sample: ts.Sample, Window: ts.Window, Branch: ts.Branch}
}

// seriesCadence resolves the effective sampling period of the series
// block at the trial's scale.
func (ss *SeriesSpec) seriesCadence(scale float64) time.Duration {
	cad := ss.Cadence.D()
	if cad <= 0 {
		cad = probe.DefaultCadence
	}
	cad = time.Duration(float64(cad) * scale)
	if cad < seriesCadenceFloor {
		cad = seriesCadenceFloor
	}
	return cad
}

// faultPlan rescales the spec's fault block into absolute event times for
// one trial window. Times keep their position relative to the window
// (ratio = window / spec window), so the perturbation→recovery structure
// survives the window floor and aggressive CLI -scale values; bursts are
// work granularity — like workload bursts — and stay unscaled. nil when
// the spec has no faults.
func (s *Spec) faultPlan(window time.Duration) *fault.Plan {
	if len(s.Faults) == 0 {
		return nil
	}
	ratio := float64(window) / float64(s.Window.D())
	scaled := func(d Dur) time.Duration {
		if d.D() <= 0 {
			return 0
		}
		v := time.Duration(float64(d.D()) * ratio)
		if v < 1 {
			v = 1 // spec'd positive: never collapse to "unset"
		}
		return v
	}
	plan := &fault.Plan{Events: make([]fault.Event, 0, len(s.Faults))}
	for i := range s.Faults {
		f := &s.Faults[i]
		plan.Events = append(plan.Events, fault.Event{
			Kind:     fault.Kind(f.Kind),
			At:       scaled(f.At),
			Duration: scaled(f.Duration),
			Cores:    pinnedCopy(f.Cores),
			Factor:   f.Factor,
			Threads:  f.Threads,
			Burst:    f.Burst.D(),
			Period:   scaled(f.Period),
			Count:    f.Count,
			Nice:     f.Nice,
		})
	}
	return plan
}

// buildTrial assembles the trial for one sweep cell.
func (s *Spec) buildTrial(cores int, rs resolvedSched, scale float64, seed int64) core.Trial[TrialReport] {
	window := s.windowFor(scale)
	name := fmt.Sprintf("%s/c%d/%s/x%s/s%d",
		s.Name, cores, rs.kind, strconv.FormatFloat(scale, 'g', -1, 64), seed)
	states := make([]*entryState, len(s.Workload))
	var att *probe.Attachment
	var rec *dtrace.Recorder
	var tlrec *timeline.Recorder
	plan := s.faultPlan(window)
	var occs []fault.Occurrence
	if plan != nil {
		occs = plan.Occurrences(window)
	}
	deg := &degradedState{}
	return core.Trial[TrialReport]{
		Name: name,
		Machine: core.MachineConfig{
			Cores: cores, Kind: rs.kind, Seed: seed,
			KernelNoise: s.Machine.KernelNoise,
			ULEParams:   rs.ule, CFSParams: rs.cfs,
		},
		Window: window,
		Workload: func(m *sim.Machine) {
			for i := range s.Workload {
				states[i] = s.install(m, i, cores, seed, name)
			}
			if s.Series != nil {
				capacity := s.Series.Capacity
				if capacity <= 0 {
					capacity = defaultSeriesCapacity
				}
				// Validated upstream, so attach cannot fail.
				att = probe.MustAttach(m, probe.Options{
					Probes:   s.Series.Probes,
					Cadence:  s.Series.seriesCadence(scale),
					Capacity: capacity,
				})
			}
			// A sample grid's recorders keep the accounts and no stream.
			if s.Trace != nil {
				attach := dtrace.Attach
				if s.sampleGrid {
					attach = dtrace.AttachAccounting
				}
				var err error
				rec, err = attach(m, s.Trace.options())
				if err != nil {
					panic(err) // bounds validated upstream
				}
			}
			if s.Timeline != nil {
				attach := timeline.Attach
				if s.sampleGrid {
					attach = timeline.AttachAccounting
				}
				tlrec = attach(m)
			}
			if plan != nil {
				// Faults install last: a probe sample landing exactly on a
				// fault instant deterministically sees the pre-fault state.
				fault.Install(m, plan)
				deg.arm(m, states, occs, window)
			}
		},
		Extract: func(m *sim.Machine) TrialReport {
			return s.extract(m, states, att, rec, tlrec, trialFaults{occs: occs, deg: deg}, cell{
				name:  name,
				cores: cores, kind: rs.kind, scale: scale, seed: seed, window: window,
			})
		},
	}
}

// trialFaults bundles a trial's fault bookkeeping into extraction.
type trialFaults struct {
	occs []fault.Occurrence
	deg  *degradedState
}

// degradedState measures throughput inside the union of active fault
// intervals: ops snapshots at every merged interval boundary, taken by
// the state itself as a timer on the machine's own queue, so the
// measurement is exactly as deterministic as the run.
type degradedState struct {
	startOps uint64
	ops      uint64
	seconds  float64
	// openFrom is the start of the interval now open (< 0 when none). One
	// still open at the window edge is closed by Extract, since a timer
	// event at exactly the window end is not guaranteed to fire.
	openFrom time.Duration
	states   []*entryState
}

// totalOps sums completed ops across all workload entries at this instant.
func totalOps(states []*entryState) uint64 {
	var n uint64
	for _, st := range states {
		if st.insts != nil {
			for _, in := range st.insts {
				n += in.Ops()
			}
		} else {
			n += st.tally.Ops()
		}
	}
	return n
}

// mergedIntervals flattens occurrences into sorted, non-overlapping
// [start, end) intervals, dropping instantaneous ones (storms).
func mergedIntervals(occs []fault.Occurrence, window time.Duration) [][2]time.Duration {
	var iv [][2]time.Duration
	for _, o := range occs {
		if o.End > o.At {
			end := o.End
			if end > window {
				end = window
			}
			iv = append(iv, [2]time.Duration{o.At, end})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var out [][2]time.Duration
	for _, in := range iv {
		if len(out) > 0 && in[0] <= out[len(out)-1][1] {
			if in[1] > out[len(out)-1][1] {
				out[len(out)-1][1] = in[1]
			}
			continue
		}
		out = append(out, in)
	}
	return out
}

// arm schedules the boundary snapshots for every merged degraded interval.
// Merged intervals neither overlap nor touch, so the boundaries alternate
// start, end, start … and each Fire flips the state.
func (d *degradedState) arm(m *sim.Machine, states []*entryState, occs []fault.Occurrence, window time.Duration) {
	d.states = states
	d.openFrom = -1
	for _, in := range mergedIntervals(occs, window) {
		m.At(in[0], d)
		if in[1] < window {
			m.At(in[1], d)
		}
	}
}

// Fire opens an interval at its start boundary and closes it at its end.
func (d *degradedState) Fire(m *sim.Machine) {
	if d.openFrom < 0 {
		d.startOps = totalOps(d.states)
		d.openFrom = m.Now()
		return
	}
	d.shut(m.Now())
}

// shut closes the open interval at end.
func (d *degradedState) shut(end time.Duration) {
	d.ops += totalOps(d.states) - d.startOps
	d.seconds += (end - d.openFrom).Seconds()
	d.openFrom = -1
}

// close finishes an interval still open at the window edge and returns
// the degraded throughput (ops completed per degraded second); false when
// no degraded time was accumulated (e.g. storm-only plans).
func (d *degradedState) close(window time.Duration) (float64, bool) {
	if d.openFrom >= 0 {
		d.shut(window)
	}
	if d.seconds <= 0 {
		return 0, false
	}
	return float64(d.ops) / d.seconds, true
}

// install builds workload entry ei on m and returns its measurement state.
func (s *Spec) install(m *sim.Machine, ei, cores int, seed int64, trialName string) *entryState {
	e := &s.Workload[ei]
	st := &entryState{label: e.label(ei), startAt: e.StartAt.D()}
	count := e.count()
	switch {
	case e.App != "":
		spec, err := apps.ByName(e.App)
		if err != nil {
			panic(err) // validated
		}
		if st.startAt < apps.ShellWarmup {
			st.startAt = apps.ShellWarmup
		}
		for i := 0; i < count; i++ {
			st.insts = append(st.insts, spec.New(m, apps.Env{Cores: cores, StartAt: e.StartAt.D()}))
		}

	case e.Loop != nil:
		for i := 0; i < count; i++ {
			startEntryThread(m, e, fmt.Sprintf("%s-%d", st.label, i), st.label,
				&workload.Loop{
					Burst: e.Loop.Burst.D(), JitterPct: e.Loop.JitterPct,
					Tally: &st.tally,
				})
		}

	case e.Finite != nil:
		for i := 0; i < count; i++ {
			startEntryThread(m, e, fmt.Sprintf("%s-%d", st.label, i), st.label,
				&workload.FiniteCompute{
					Burst: e.Finite.Burst.D(), JitterPct: e.Finite.JitterPct,
					N: e.Finite.N, IOSleep: e.Finite.IOSleep.D(),
					Tally: &st.tally,
				})
		}

	case e.OpenLoop != nil:
		ol := e.OpenLoop
		mean := ol.Interarrival.D()
		if ol.Rate > 0 {
			mean = time.Duration(float64(time.Second) / ol.Rate)
		}
		dist := workload.ArrivalDist(ol.Dist)
		if dist == "" {
			dist = workload.Poisson
		}
		// Count spawns independent streams: each instance owns its queue,
		// worker pool, and arrival generator, so the offered load scales
		// with count like every other entry kind.
		for inst := 0; inst < count; inst++ {
			q := ipc.NewReqQueue()
			st.hists = append(st.hists, q.Latency)
			for i := 0; i < ol.Workers; i++ {
				m.StartThreadCfg(sim.ThreadConfig{
					Name: fmt.Sprintf("%s-%d-w%d", st.label, inst, i), Group: st.label,
					Nice: e.Nice, Pinned: pinnedCopy(e.Pinned),
					Prog: &workload.ServerWorker{Q: q, Tally: &st.tally},
				})
			}
			// The arrival stream is a pure function of (trial, entry,
			// instance): derived from the cell's seed axis value, the CLI
			// base-seed perturbation, and the entry's place in the spec —
			// deterministic at any -jobs width, varied by -seed.
			genSeed := runner.DeriveSeed(seed^core.BaseSeed(),
				fmt.Sprintf("%s/%s#%d", trialName, st.label, inst), ei)
			(&workload.OpenLoop{
				Q:       q,
				Gen:     workload.NewArrivalGen(dist, mean, genSeed),
				Service: ol.Service.D(), ServiceJitterPct: ol.ServiceJitterPct,
				Start: st.startAt,
			}).StartOn(m)
		}
	}
	return st
}

// startEntryThread launches one primitive thread with the entry's pinning,
// nice value, and start delay.
func startEntryThread(m *sim.Machine, e *Entry, name, group string, prog sim.Program) {
	if d := e.StartAt.D(); d > 0 {
		prog = &delayedProg{d: d, prog: prog}
	}
	m.StartThreadCfg(sim.ThreadConfig{
		Name: name, Group: group, Nice: e.Nice,
		Pinned: pinnedCopy(e.Pinned), Prog: prog,
	})
}

// delayedProg sleeps once, then becomes the wrapped program — a thread-level
// startAt for primitives.
type delayedProg struct {
	d     time.Duration
	prog  sim.Program
	slept bool
}

// Next implements sim.Program.
func (p *delayedProg) Next(ctx *sim.Ctx) sim.Op {
	if !p.slept {
		p.slept = true
		return sim.Sleep(p.d)
	}
	return p.prog.Next(ctx)
}

func pinnedCopy(p []int) []int {
	if len(p) == 0 {
		return nil
	}
	return append([]int(nil), p...)
}

// cell carries one sweep cell's coordinates into extraction.
type cell struct {
	name   string
	cores  int
	kind   core.SchedulerKind
	scale  float64
	seed   int64
	window time.Duration
}

// extract reads the trial's outcome into a TrialReport, honouring the
// spec's metric selection. Everything read here is deterministic state of
// the (single-threaded, seeded) simulation, so reports are byte-identical
// however the surrounding grid was scheduled. A sample grid's report is its
// metric vector: Derived is computed from the same probes, recorders and
// fault plan, but the sections no metric reads (Series, CoreUtil, Faults,
// Trace, Timeline) are never built.
func (s *Spec) extract(m *sim.Machine, states []*entryState, att *probe.Attachment, rec *dtrace.Recorder, tlrec *timeline.Recorder, tf trialFaults, c cell) TrialReport {
	full := !s.sampleGrid
	rep := TrialReport{
		Name:      c.name,
		Cores:     c.cores,
		Scheduler: string(c.kind),
		Seed:      c.seed,
		Scale:     c.scale,
		WindowS:   c.window.Seconds(),
		Events:    m.EventsProcessed(),
	}

	merged := &stats.Histogram{}
	if s.wants(MetricThroughput) || s.wants(MetricLatency) {
		tp := &ThroughputReport{}
		for _, st := range states {
			er := EntryReport{Label: st.label}
			hist := st.entryLatency()
			if hist != nil {
				merged.Merge(hist)
			}
			if st.insts != nil {
				for _, in := range st.insts {
					er.Ops += in.Ops()
					er.OpsPerSec += in.Perf()
				}
			} else {
				er.Ops = st.tally.Ops()
				if elapsed := (c.window - st.startAt).Seconds(); elapsed > 0 {
					er.OpsPerSec = float64(er.Ops) / elapsed
				}
			}
			if s.wants(MetricLatency) {
				er.Latency = latencyReport(hist)
			}
			tp.TotalOps += er.Ops
			tp.OpsPerSec += er.OpsPerSec
			tp.Entries = append(tp.Entries, er)
		}
		if s.wants(MetricThroughput) {
			rep.Throughput = tp
		}
	}
	if s.wants(MetricLatency) {
		rep.Latency = latencyReport(merged)
	}

	if s.wants(MetricCounters) {
		rep.Counters = map[string]uint64{
			"switches":    m.Counts.Switches,
			"wakeups":     m.Counts.Wakeups,
			"migrations":  m.Counts.Migrations,
			"preemptions": m.Counts.Preemptions,
			"forks":       m.Counts.Forks,
			"exits":       m.Counts.Exits,
			"balances":    m.Counts.Balances,
			"steals":      m.Counts.Steals,
		}
		for _, cn := range m.Counters.Names() {
			rep.Counters[cn] = m.Counters.Value(cn)
		}
	}

	if s.wants(MetricUtilization) && full {
		rep.CoreUtil = make([]float64, len(m.Cores))
		for i, co := range m.Cores {
			rep.CoreUtil[i] = co.Utilization()
		}
	}

	derive := func(name string, v float64) {
		if rep.Derived == nil {
			rep.Derived = map[string]float64{}
		}
		rep.Derived[name] = v
	}
	if att != nil {
		set := att.Set()
		if full {
			set.Each(func(sr *probe.Series) {
				rep.Series = append(rep.Series, seriesReport(sr))
			})
		}
		rep.Derived = deriveSeriesMetrics(set, c.window, tf.occs)
	}
	if len(tf.occs) > 0 {
		if full {
			// Echo the resolved activations — Occurrences is a pure function
			// of (plan, window), so every derived recovery metric is
			// auditable from the report alone.
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			for _, o := range tf.occs {
				rep.Faults = append(rep.Faults, FaultReport{
					Kind: string(o.Kind), AtUS: us(o.At), EndUS: us(o.End), Cores: o.Cores,
				})
			}
		}
		if v, ok := tf.deg.close(c.window); ok {
			derive(MetricDegradedOpsPerSec, v)
		}
	}
	if rec != nil {
		_ = rec.Close() // in-memory sink: Close cannot fail
		hr := rec.Headroom()
		if full {
			rep.Trace = &TraceReport{Summary: rec.Summary(), Headroom: hr}
			rep.TraceData = rec.Bytes()
		}
		if hr.Wakes > 0 {
			derive(MetricHeadroomPct, hr.Pct)
		}
	}
	if tlrec != nil {
		tlrec.Close()
		sum := tlrec.Summary()
		if full {
			rep.Timeline = &TimelineReport{
				Summary: sum,
				Classes: tlrec.Classes(),
				Worst:   tlrec.Worst(),
			}
			// Replay the trial's probe series as Perfetto counter tracks;
			// the export gates them on the spec's track selection.
			var counters []timeline.CounterTrack
			for i := range rep.Series {
				sr := &rep.Series[i]
				counters = append(counters, timeline.CounterTrack{Name: sr.Name, Points: sr.Points})
			}
			rep.TimelineData = tlrec.AppendPerfetto(nil, counters)
		}
		if sum.SpanNS > 0 {
			derive(MetricRunFrac, sum.RunFrac)
			derive(MetricWaitFrac, sum.WaitFrac)
			derive(MetricSleepFrac, sum.SleepFrac)
			if sum.Wakeups > 0 {
				derive(MetricSchedLatencyP99US, sum.LatencyP99US)
			}
		}
	}
	return rep
}

// entryLatency merges the entry's latency recordings (its own open-loop
// queues plus any app instances'); nil when the entry records none.
func (st *entryState) entryLatency() *stats.Histogram {
	hists := st.hists
	for _, in := range st.insts {
		if in.Latency != nil {
			hists = append(hists, in.Latency)
		}
	}
	switch len(hists) {
	case 0:
		return nil
	case 1:
		return hists[0]
	}
	merged := &stats.Histogram{}
	for _, h := range hists {
		merged.Merge(h)
	}
	return merged
}
