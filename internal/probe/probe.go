// Package probe is the unified telemetry layer of the reproduction: a
// first-class, allocation-bounded time-series subsystem every sampler in
// the tree records into. The paper's most persuasive evidence is
// time-series, not scalars — Figure 6's per-core runqueue convergence and
// Figure 7's c-ray startup transient — and this package is the one
// plumbing that carries such series from the engine to the experiment
// drivers, the scenario reports, and the battle matrix.
//
// Storage is a fixed-capacity buffer with deterministic downsampling:
// when a series fills, every other retained point is dropped and the
// recording stride doubles (halve-resolution-on-full), so a week-long
// heavy-traffic recording stays O(capacity) in memory while the retained
// points remain uniformly spaced for a uniform input cadence. Sampling is
// driven by the simulator's timer wheel (attach.go); built-in probes
// read the engine's counts or observe its events (sim.Observer: the
// runqlat probe dispatches, the ticks probe ticks).
//
// Everything here is plain single-threaded data — the simulator is
// sequential, so no locking is needed or wanted. Series and set iteration
// follow creation order, which is deterministic for a seeded simulation,
// so anything rendered from a Set is byte-identical at any worker-pool
// width.
package probe

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// DefaultCapacity bounds a series when the caller does not choose one:
// generous for any paper-sized recording (a 10-minute run sampled every
// 250 ms is ~2400 points), small enough that a grid of trials cannot grow
// without bound.
const DefaultCapacity = 4096

// Point is one retained sample: a simulated timestamp and a value.
type Point struct {
	T time.Duration // simulated time since machine start
	V float64
}

// Series is a bounded time series. Offer appends samples in
// non-decreasing time order; once capacity is reached the series halves
// its resolution: retained points thin to every other one and the stride
// doubles, so only every stride-th offered sample is recorded from then
// on. For a uniform offer cadence the retained points stay uniformly
// spaced at cadence×stride.
//
// Odd capacities above 1 round up to even (see newSeries) so the
// invariant survives every halving. Capacity 1 is the degenerate edge:
// halving cannot free a slot, so the series retains exactly its first
// sample forever (the stride still doubles on every full offer,
// documenting the decay deterministically).
type Series struct {
	Name string

	pts    []Point
	cap    int
	stride int // record every stride-th offered sample
	skip   int // offers to drop before the next recorded one
}

// newSeries builds an empty series; capacity <= 0 selects
// DefaultCapacity. Odd capacities above 1 are rounded up to even:
// halving an odd-length buffer would land the next retained point off
// the doubled stride grid, breaking the uniform-spacing invariant.
func newSeries(name string, capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity > 1 && capacity%2 == 1 {
		capacity++
	}
	return &Series{Name: name, cap: capacity, stride: 1}
}

// Offer presents one sample. Whether it is retained depends on the
// current stride; when retention would overflow the capacity, the series
// first halves its resolution.
func (s *Series) Offer(t time.Duration, v float64) {
	if s.stride == 0 { // zero-value Series (tests, ad-hoc use)
		s.stride, s.cap = 1, DefaultCapacity
	}
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.pts) == s.cap {
		s.halve()
		if len(s.pts) == s.cap {
			// Capacity 1: no room can be made; drop the sample.
			s.skip = s.stride - 1
			return
		}
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	s.skip = s.stride - 1
}

// halve drops every other retained point (keeping the even indices, so
// the oldest point always survives) and doubles the stride.
func (s *Series) halve() {
	keep := 0
	for i := 0; i < len(s.pts); i += 2 {
		s.pts[keep] = s.pts[i]
		keep++
	}
	s.pts = s.pts[:keep]
	s.stride *= 2
}

// Stride returns the current recording stride: 1 until the first halving,
// then doubling with each one.
func (s *Series) Stride() int {
	if s.stride == 0 {
		return 1
	}
	return s.stride
}

// Points returns the retained samples in time order. The slice aliases
// the series and must not be modified.
func (s *Series) Points() []Point { return s.pts }

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.pts) }

// Last returns the final retained sample, or a zero Point if empty.
func (s *Series) Last() Point {
	if len(s.pts) == 0 {
		return Point{}
	}
	return s.pts[len(s.pts)-1]
}

// At returns the value at-or-before time t (step interpolation), or 0
// before the first sample.
func (s *Series) At(t time.Duration) float64 {
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return 0
	}
	return s.pts[i-1].V
}

// Max returns the maximum retained value, or 0 if empty.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.pts {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Min returns the minimum retained value, or 0 if empty.
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, p := range s.pts {
		if p.V < m {
			m = p.V
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// FirstCrossing returns the earliest retained sample time with V >= v,
// and whether one exists — the "time until balanced / all-runnable"
// reading on Figures 6 and 7.
func (s *Series) FirstCrossing(v float64) (time.Duration, bool) {
	for _, p := range s.pts {
		if p.V >= v {
			return p.T, true
		}
	}
	return 0, false
}

// Gnuplot renders "time value" rows with time in seconds, the format the
// paper's figures plot.
func (s *Series) Gnuplot() string {
	var b strings.Builder
	for _, p := range s.pts {
		fmt.Fprintf(&b, "%.3f %.6g\n", p.T.Seconds(), p.V)
	}
	return b.String()
}

// Set is a named collection of series, e.g. one per core or thread.
// Series created through Get inherit the set's capacity.
type Set struct {
	byName   map[string]*Series
	order    []string
	capacity int
}

// NewSet returns an empty set whose series are bounded at capacity
// (<= 0 selects DefaultCapacity).
func NewSet(capacity int) *Set {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Set{byName: make(map[string]*Series), capacity: capacity}
}

// Get returns the series with the given name, creating it (at the set's
// capacity) if needed.
func (ss *Set) Get(name string) *Series {
	s, ok := ss.byName[name]
	if !ok {
		s = newSeries(name, ss.capacity)
		ss.byName[name] = s
		ss.order = append(ss.order, name)
	}
	return s
}

// Sample offers one point to the named series, creating it if needed.
func (ss *Set) Sample(name string, t time.Duration, v float64) {
	ss.Get(name).Offer(t, v)
}

// Put installs s under name, replacing an existing series of that name
// and preserving creation order otherwise; Merge adopts series through
// it.
func (ss *Set) Put(name string, s *Series) {
	if _, ok := ss.byName[name]; !ok {
		ss.order = append(ss.order, name)
	}
	ss.byName[name] = s
}

// Merge adopts every series of o in o's creation order. A same-named
// series in ss is REPLACED by o's, not concatenated — callers that need
// to keep both recordings must rename first. Experiment drivers fold
// per-trial sub-results with core's Result.Merge, which combines
// colliding sets through this; merging in trial declaration order keeps
// the combined set deterministic however the trials were scheduled.
func (ss *Set) Merge(o *Set) {
	if o == nil {
		return
	}
	for _, name := range o.order {
		ss.Put(name, o.byName[name])
	}
}

// Names returns series names in creation order.
func (ss *Set) Names() []string { return ss.order }

// Each calls fn for every series in creation order.
func (ss *Set) Each(fn func(*Series)) {
	for _, n := range ss.order {
		fn(ss.byName[n])
	}
}
