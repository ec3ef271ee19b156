package probe

// Attaching probes to a machine. An Attachment owns one periodic sampler
// on the simulator's timer wheel (a sim.Timer) plus whatever hook
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
}

// Attachment is a live probe registration on one machine.
type Attachment struct {
	m        *sim.Machine
	set      *Set
	cadence  time.Duration
	samplers []sampler                 // the built-in probes'
	custom   []func(now time.Duration) // drivers' bespoke samplers
	stopped  bool

	// Convergence tracking, maintained by the runq probe at full sample
	// resolution: the first sample at-or-after the armed instant where
	// max−min runnable depth across cores is ≤ 1.
	hasRunq     bool
	convArmedAt time.Duration
	convergedAt time.Duration
	converged   bool
}

// builtinProbe is one named probe: an installer that registers hooks and
// appends the sampler.
type builtinProbe struct {
	name    string
	install func(a *Attachment)
}

// builtins lists every built-in probe in stable (sorted) order.
var builtins = []builtinProbe{
	{"live", installLive},               // live (non-dead) thread count
	{"migrations", installMigrations},   // runnable-thread migrations per second
	{"preemptions", installPreemptions}, // involuntary preemptions per second
	{"runq", installRunq},               // per-core runnable depth (the Figure 6/7 heatmap signal)
	{"runqlat", installRunqlat},         // per-group runqueue wait quantiles in µs (enqueue→dispatch hooks)
	{"steals", installSteals},           // idle steals per second
	{"ticks", installTicks},             // scheduler ticks per second across all cores (tick hook)
	{"util", installUtil},               // per-core windowed utilization in [0,1]
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

// Attach installs the named probes on m and starts the periodic sampler.
// It errors on unknown or duplicate probe names.
func Attach(m *sim.Machine, opts Options) (*Attachment, error) {
	cadence := opts.Cadence
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	a := &Attachment{m: m, set: NewSet(opts.Capacity), cadence: cadence}
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
	m.At(cadence, sampleTimer{a})
	return a, nil
}

// sampleTimer runs the attachment's samplers every cadence until Stop.
type sampleTimer struct{ a *Attachment }

func (t sampleTimer) Fire(m *sim.Machine) {
	if t.a.stopped {
		return
	}
	now := m.Now()
	for _, s := range t.a.samplers {
		s.sample(now)
	}
	for _, fn := range t.a.custom {
		fn(now)
	}
	m.At(now+t.a.cadence, t)
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
	a.custom = append(a.custom, fn)
}

// Stop ends sampling at the next cycle: the timer fires once more and does
// not re-arm.
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

// sampler is a built-in probe's reading, taken once per cadence.
type sampler interface {
	sample(now time.Duration)
}

// installRunq samples per-core runnable depth and maintains the
// attachment's convergence detector.
func installRunq(a *Attachment) {
	a.hasRunq = true
	a.samplers = append(a.samplers, &runqSampler{a: a, ss: coreSeries(a, "runq")})
}

type runqSampler struct {
	a   *Attachment
	ss  []*Series
	buf []int
}

func (r *runqSampler) sample(now time.Duration) {
	a := r.a
	r.buf = a.m.RunnableCountsInto(r.buf)
	lo, hi := r.buf[0], r.buf[0]
	for i, n := range r.buf {
		r.ss[i].Offer(now, float64(n))
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
}

// installUtil samples windowed per-core utilization: busy time accrued in
// the last sampling window over the window length.
func installUtil(a *Attachment) {
	a.samplers = append(a.samplers, &utilSampler{
		m: a.m, ss: coreSeries(a, "util"), prevBusy: make([]time.Duration, len(a.m.Cores)),
	})
}

type utilSampler struct {
	m        *sim.Machine
	ss       []*Series
	prevBusy []time.Duration
	prevNow  time.Duration
}

func (u *utilSampler) sample(now time.Duration) {
	window := now - u.prevNow
	if window <= 0 {
		return
	}
	for i, c := range u.m.Cores {
		busy := c.BusySoFar()
		u.ss[i].Offer(now, float64(busy-u.prevBusy[i])/float64(window))
		u.prevBusy[i] = busy
	}
	u.prevNow = now
}

// installLive samples the live-thread count — the Figure 7 startup ramp.
func installLive(a *Attachment) {
	a.samplers = append(a.samplers, &liveSampler{m: a.m, s: a.set.Get("live.threads")})
}

type liveSampler struct {
	m *sim.Machine
	s *Series
}

func (l *liveSampler) sample(now time.Duration) { l.s.Offer(now, float64(l.m.LiveThreads())) }

// addRate samples a monotonically increasing count as a per-second
// windowed rate series. Counting starts at attach: events before it fall
// in no window.
func addRate(a *Attachment, name string, count *uint64) {
	a.samplers = append(a.samplers, &rateSampler{s: a.set.Get(name), count: count, prev: *count})
}

type rateSampler struct {
	s       *Series
	count   *uint64
	prev    uint64
	prevNow time.Duration
}

func (r *rateSampler) sample(now time.Duration) {
	window := (now - r.prevNow).Seconds()
	if window <= 0 {
		return
	}
	n := *r.count
	r.s.Offer(now, float64(n-r.prev)/window)
	r.prev = n
	r.prevNow = now
}

// installMigrations reads the engine's migration count
// (sim.Machine.Counts), bumped wherever the migrate hook fires.
func installMigrations(a *Attachment) { addRate(a, "rate.migrations", &a.m.Counts.Migrations) }

// installSteals reads the engine's idle-steal count (sim.Machine.Counts),
// bumped wherever the steal hook fires.
func installSteals(a *Attachment) { addRate(a, "rate.steals", &a.m.Counts.Steals) }

// installPreemptions reads the engine's preemption count
// (sim.Machine.Counts).
func installPreemptions(a *Attachment) { addRate(a, "rate.preemptions", &a.m.Counts.Preemptions) }

// installTicks counts fired scheduler ticks via the tick hook. Every
// online core ticks once a period, idle or busy, so the rate is cores ×
// tick frequency and dips only while cores are hot-unplugged.
func installTicks(a *Attachment) {
	n := new(uint64)
	a.m.OnTick(func(c *sim.Core) { *n++ })
	addRate(a, "rate.ticks", n)
}

// installRunqlat observes every dispatch's runqueue wait — the time since
// the thread last became runnable or was descheduled, whichever is later
// — into one histogram per thread group, and samples the cumulative p50/
// p95/p99 per group in microseconds. Groups appear in first-dispatch
// order, which is deterministic for a seeded simulation.
func installRunqlat(a *Attachment) {
	r := &runqlatSampler{set: a.set, hists: map[string]*stats.Histogram{}}
	m := a.m
	m.OnDispatch(func(c *sim.Core, t *sim.Thread) {
		since := t.LastEnqueuedAt
		if t.LastRanAt > since {
			since = t.LastRanAt
		}
		h, ok := r.hists[t.Group]
		if !ok {
			h = &stats.Histogram{}
			r.hists[t.Group] = h
			r.order = append(r.order, t.Group)
		}
		h.Observe(m.Now() - since)
	})
	a.samplers = append(a.samplers, r)
}

type runqlatSampler struct {
	set   *Set
	hists map[string]*stats.Histogram
	order []string
}

func (r *runqlatSampler) sample(now time.Duration) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, g := range r.order {
		h := r.hists[g]
		if h.Count() == 0 {
			continue
		}
		r.set.Sample("runqlat.p50."+g, now, us(h.Quantile(0.50)))
		r.set.Sample("runqlat.p95."+g, now, us(h.Quantile(0.95)))
		r.set.Sample("runqlat.p99."+g, now, us(h.Quantile(0.99)))
	}
}
