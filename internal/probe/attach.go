package probe

// Attaching probes to a machine. An Attachment owns one periodic sampler
// on the simulator's timer wheel (sim.Machine.Every) plus whatever hook
// registrations its probes need; all probes of an attachment share one
// cadence and record into one Set. Built-in probes are selected by name
// (Options.Probes, validated against Names); drivers with bespoke
// measurements add Custom samplers on the same cadence, so every sampler
// in the tree — fig6/fig7 runqueue heatmaps, the per-thread runtime and
// penalty curves, scenario series blocks — rides the same machinery.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// DefaultCadence is the sampling period when Options does not choose one:
// the 250 ms grid the paper's Figure 6/7 heatmaps use.
const DefaultCadence = 250 * time.Millisecond

// Options configures an attachment.
type Options struct {
	// Probes names the built-in probes to install (see Names); empty
	// attaches only the periodic sampler, for Custom-only use.
	Probes []string
	// Cadence is the sampling period (default DefaultCadence).
	Cadence time.Duration
	// Capacity bounds every series (default DefaultCapacity); on
	// overflow a series halves its resolution (see Series).
	Capacity int
	// Into records into an existing set instead of a fresh one — for
	// drivers that allocate the destination before the machine exists.
	// Series the built-in probes create through it still inherit the
	// set's own capacity.
	Into *Set
}

// Attachment is a live probe registration on one machine.
type Attachment struct {
	m        *sim.Machine
	set      *Set
	samplers []func(now time.Duration)
	stopped  bool

	// Convergence tracking, maintained by the runq probe at full sample
	// resolution: the first sample at-or-after the armed instant where
	// max−min runnable depth across cores is ≤ 1.
	hasRunq     bool
	convArmedAt time.Duration
	convergedAt time.Duration
	converged   bool
}

// builtinProbe is one named probe: a description (CLI/docs) and an
// installer that registers hooks and appends the sampler.
type builtinProbe struct {
	name    string
	desc    string
	install func(a *Attachment)
}

// builtins lists every built-in probe in stable (sorted) order.
var builtins = []builtinProbe{
	{"live", "live (non-dead) thread count", installLive},
	{"migrations", "runnable-thread migrations per second", installMigrations},
	{"preemptions", "involuntary preemptions per second", installPreemptions},
	{"runq", "per-core runnable depth (the Figure 6/7 heatmap signal)", installRunq},
	{"runqlat", "per-group runqueue wait quantiles in µs (enqueue→dispatch hooks)", installRunqlat},
	{"steals", "idle steals per second", installSteals},
	{"ticks", "scheduler ticks per second across all cores (tick hook)", installTicks},
	{"util", "per-core windowed utilization in [0,1]", installUtil},
}

// Names lists the built-in probe names, sorted.
func Names() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	sort.Strings(names)
	return names
}

// Describe returns the one-line description of a built-in probe name.
func Describe(name string) (string, bool) {
	for _, b := range builtins {
		if b.name == name {
			return b.desc, true
		}
	}
	return "", false
}

// Attach installs the named probes on m and starts the periodic sampler.
// It errors on unknown or duplicate probe names.
func Attach(m *sim.Machine, opts Options) (*Attachment, error) {
	cadence := opts.Cadence
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	set := opts.Into
	if set == nil {
		set = NewSet(opts.Capacity)
	}
	a := &Attachment{m: m, set: set}
	seen := map[string]bool{}
	for _, name := range opts.Probes {
		if seen[name] {
			return nil, fmt.Errorf("probe: probe %q listed twice", name)
		}
		seen[name] = true
		var b *builtinProbe
		for i := range builtins {
			if builtins[i].name == name {
				b = &builtins[i]
				break
			}
		}
		if b == nil {
			return nil, fmt.Errorf("probe: unknown probe %q (known: %s)", name, strings.Join(Names(), ", "))
		}
		b.install(a)
	}
	m.Every(cadence, cadence, func() bool {
		if a.stopped {
			return false
		}
		now := m.Now()
		for _, s := range a.samplers {
			s(now)
		}
		return true
	})
	return a, nil
}

// MustAttach is Attach, panicking on error — for drivers with
// compile-time-known probe lists.
func MustAttach(m *sim.Machine, opts Options) *Attachment {
	a, err := Attach(m, opts)
	if err != nil {
		panic(err)
	}
	return a
}

// Set returns the attachment's destination series set.
func (a *Attachment) Set() *Set { return a.set }

// Custom appends a bespoke sampler on the attachment's cadence; fn
// receives the simulated sample time and records wherever it likes
// (typically a.Set().Sample, or a driver-owned Set). Samplers run in
// registration order, built-ins first.
func (a *Attachment) Custom(fn func(now time.Duration)) {
	a.samplers = append(a.samplers, fn)
}

// Stop ends sampling at the next cycle, releasing the timer registration.
func (a *Attachment) Stop() { a.stopped = true }

// ArmConvergence restarts convergence detection at the given simulated
// instant: samples before it are ignored, and the first at-or-after it
// with a per-core runnable spread ≤ 1 is recorded. Requires the runq
// probe. The fig6 driver arms this at the unpin point and then drives the
// machine with RunUntil(att.Converged, deadline) — a flag check per event
// boundary, no per-boundary sampling.
func (a *Attachment) ArmConvergence(at time.Duration) {
	if !a.hasRunq {
		panic("probe: ArmConvergence without the runq probe")
	}
	a.convArmedAt = at
	a.converged = false
	a.convergedAt = 0
}

// Converged reports whether a sample since the armed instant saw the
// per-core runnable spread ≤ 1.
func (a *Attachment) Converged() bool { return a.converged }

// ConvergedAt returns the sample time convergence was first observed at.
func (a *Attachment) ConvergedAt() (time.Duration, bool) {
	return a.convergedAt, a.converged
}

// coreSeries resolves one pre-created series per core, named
// "<prefix>.core<i>" — resolved at install so sampling is index math,
// not string formatting.
func coreSeries(a *Attachment, prefix string) []*Series {
	ss := make([]*Series, len(a.m.Cores))
	for i := range ss {
		ss[i] = a.set.Get(fmt.Sprintf("%s.core%d", prefix, i))
	}
	return ss
}

// installRunq samples per-core runnable depth and maintains the
// attachment's convergence detector.
func installRunq(a *Attachment) {
	a.hasRunq = true
	ss := coreSeries(a, "runq")
	var buf []int
	m := a.m
	a.samplers = append(a.samplers, func(now time.Duration) {
		buf = m.RunnableCountsInto(buf)
		lo, hi := buf[0], buf[0]
		for i, n := range buf {
			ss[i].Offer(now, float64(n))
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if !a.converged && now >= a.convArmedAt && hi-lo <= 1 {
			a.converged = true
			a.convergedAt = now
		}
	})
}

// installUtil samples windowed per-core utilization: busy time accrued in
// the last sampling window over the window length.
func installUtil(a *Attachment) {
	ss := coreSeries(a, "util")
	prevBusy := make([]time.Duration, len(a.m.Cores))
	var prevNow time.Duration
	m := a.m
	a.samplers = append(a.samplers, func(now time.Duration) {
		window := now - prevNow
		if window <= 0 {
			return
		}
		for i, c := range m.Cores {
			busy := c.BusySoFar()
			ss[i].Offer(now, float64(busy-prevBusy[i])/float64(window))
			prevBusy[i] = busy
		}
		prevNow = now
	})
}

// installLive samples the live-thread count — the Figure 7 startup ramp.
func installLive(a *Attachment) {
	s := a.set.Get("live.threads")
	m := a.m
	a.samplers = append(a.samplers, func(now time.Duration) {
		s.Offer(now, float64(m.LiveThreads()))
	})
}

// rateSampler converts a monotonically increasing count source into a
// per-second windowed rate series. Counting starts at attach: events
// before it fall in no window.
func rateSampler(a *Attachment, name string, count func() uint64) {
	s := a.set.Get(name)
	prev := count()
	var prevNow time.Duration
	a.samplers = append(a.samplers, func(now time.Duration) {
		window := (now - prevNow).Seconds()
		if window <= 0 {
			return
		}
		n := count()
		s.Offer(now, float64(n-prev)/window)
		prev = n
		prevNow = now
	})
}

// installMigrations reads the engine's migration count
// (sim.Machine.Counts), bumped wherever the migrate hook fires.
func installMigrations(a *Attachment) {
	m := a.m
	rateSampler(a, "rate.migrations", func() uint64 { return m.Counts.Migrations })
}

// installSteals reads the engine's idle-steal count (sim.Machine.Counts),
// bumped wherever the steal hook fires.
func installSteals(a *Attachment) {
	m := a.m
	rateSampler(a, "rate.steals", func() uint64 { return m.Counts.Steals })
}

// installPreemptions reads the engine's preemption count
// (sim.Machine.Counts).
func installPreemptions(a *Attachment) {
	m := a.m
	rateSampler(a, "rate.preemptions", func() uint64 { return m.Counts.Preemptions })
}

// installTicks counts fired scheduler ticks via the tick hook. Every
// online core ticks once a period, idle or busy, so the rate is cores ×
// tick frequency and dips only while cores are hot-unplugged.
func installTicks(a *Attachment) {
	var n uint64
	a.m.OnTick(func(c *sim.Core) { n++ })
	rateSampler(a, "rate.ticks", func() uint64 { return n })
}

// installRunqlat observes every dispatch's runqueue wait — the time since
// the thread last became runnable or was descheduled, whichever is later
// — into one histogram per thread group, and samples the cumulative p50/
// p95/p99 per group in microseconds. Groups appear in first-dispatch
// order, which is deterministic for a seeded simulation.
func installRunqlat(a *Attachment) {
	hists := map[string]*stats.Histogram{}
	var order []string
	m := a.m
	m.OnDispatch(func(c *sim.Core, t *sim.Thread) {
		since := t.LastEnqueuedAt
		if t.LastRanAt > since {
			since = t.LastRanAt
		}
		h, ok := hists[t.Group]
		if !ok {
			h = &stats.Histogram{}
			hists[t.Group] = h
			order = append(order, t.Group)
		}
		h.Observe(m.Now() - since)
	})
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	a.samplers = append(a.samplers, func(now time.Duration) {
		for _, g := range order {
			h := hists[g]
			if h.Count() == 0 {
				continue
			}
			a.set.Sample("runqlat.p50."+g, now, us(h.Quantile(0.50)))
			a.set.Sample("runqlat.p95."+g, now, us(h.Quantile(0.95)))
			a.set.Sample("runqlat.p99."+g, now, us(h.Quantile(0.99)))
		}
	})
}
