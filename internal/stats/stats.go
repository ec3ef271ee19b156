// Package stats provides the scalar measurement primitives the experiment
// harness records into: latency histograms (Table 2), counters
// (preemptions, migrations, scheduler cycles), and sample summaries
// (inference.go). Time series live in internal/probe — the unified
// telemetry layer — which builds its quantile samplers on the Histogram
// here.
//
// Everything here is plain single-threaded data — the simulator is
// sequential, so no locking is needed or wanted.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram is a logarithmic-bucket latency histogram covering 1µs..~100s
// with ~4% relative precision; enough for the paper's ms-scale latencies.
// The 3.4 kB of buckets is allocated by the first Observe or non-empty
// Merge, so a histogram nothing records into costs only its header.
type Histogram struct {
	buckets *[bucketCount]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	// 16 buckets per octave over 27 octaves starting at 1µs.
	bucketsPerOctave = 16
	octaves          = 27
	bucketCount      = bucketsPerOctave * octaves
	histBase         = time.Microsecond
)

// bucketOfLog defines the bucketing: 16 buckets per doubling of d/1µs.
func bucketOfLog(d time.Duration) int {
	if d < histBase {
		return 0
	}
	l := math.Log2(float64(d) / float64(histBase))
	i := int(l * bucketsPerOctave)
	if i >= bucketCount {
		i = bucketCount - 1
	}
	return i
}

// bucketBound[i] is the smallest duration bucketOfLog puts in bucket i,
// found from bucketOfLog itself so that bucketOf agrees with it on every
// nanosecond. (One nanosecond moves log2·16 by at least 1e-10, far more
// than the logarithm's rounding, so each bucket is one contiguous range.)
var bucketBound = func() (b [bucketCount]time.Duration) {
	for i := range b {
		d := bucketLow(i) // within a nanosecond of it
		for bucketOfLog(d) < i {
			d++
		}
		for d > histBase && bucketOfLog(d-1) >= i {
			d--
		}
		b[i] = d
	}
	return b
}()

// bucketOf is bucketOfLog without the logarithm, which was most of
// Observe's cost. The bit length gives the power-of-two octave and the
// offset within it a guess never high and at most three low (log2 lies on
// or above its chord, and 160 ≥ 16·log2(1000)); the bounds settle it.
func bucketOf(d time.Duration) int {
	d = min(max(d, histBase), bucketBound[bucketCount-1])
	e := bits.Len64(uint64(d)) - 1
	i := max(0, bucketsPerOctave*e+int((uint64(d)-1<<e)*bucketsPerOctave>>e)-160)
	for i+1 < bucketCount && bucketBound[i+1] <= d {
		i++
	}
	return i
}

func bucketLow(i int) time.Duration {
	return time.Duration(float64(histBase) * math.Pow(2, float64(i)/bucketsPerOctave))
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.buckets == nil {
		h.buckets = new([bucketCount]uint64)
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Empty-histogram contract: every summary accessor — Mean, Min, Max,
// Quantile — returns exactly 0 when Count() == 0, never an uninitialised
// or stale extreme. Callers that must distinguish "no samples" from "all
// samples were zero" check Count() first (latencyReport does, to omit
// empty sections entirely).

// Mean returns the mean latency, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest observed sample, or 0 with no samples.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample, or 0 with no samples.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the latency at quantile q in [0,1], using the lower edge
// of the containing bucket. It is 0 with no samples; q is clamped into
// [0,1], and a NaN q reads as 0 (the minimum) rather than poisoning the
// bucket walk.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			return bucketLow(i)
		}
	}
	return h.max
}

// Merge folds o's samples into h bucket-wise. Quantiles of the merged
// histogram are exact at bucket resolution, as if every sample had been
// observed on h directly; the scenario engine uses this to combine
// per-entry and per-instance latency recordings into one report line.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.buckets == nil {
		h.buckets = new([bucketCount]uint64)
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// String summarises the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Counter is a named monotonically increasing count.
type Counter struct {
	Name string
	N    uint64
}

// Inc adds delta to the counter.
func (c *Counter) Inc(delta uint64) { c.N += delta }

// CounterSet is a keyed collection of counters.
type CounterSet struct {
	byName map[string]*Counter
	order  []string
}

// NewCounterSet returns an empty set.
func NewCounterSet() *CounterSet {
	return &CounterSet{byName: make(map[string]*Counter)}
}

// Get returns the named counter, creating it if needed.
func (cs *CounterSet) Get(name string) *Counter {
	c, ok := cs.byName[name]
	if !ok {
		c = &Counter{Name: name}
		cs.byName[name] = c
		cs.order = append(cs.order, name)
	}
	return c
}

// Value returns the current value of name (0 if never created).
func (cs *CounterSet) Value(name string) uint64 {
	if c, ok := cs.byName[name]; ok {
		return c.N
	}
	return 0
}

// Names returns counter names in creation order.
func (cs *CounterSet) Names() []string { return cs.order }

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MaxMinSpread returns max(xs) - min(xs); 0 for empty input. Figures 6/7 use
// it as the imbalance measure across per-core thread counts.
func MaxMinSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
