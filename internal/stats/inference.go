// Inference primitives for multi-seed replication studies: sample
// summaries, seeded deterministic bootstrap confidence intervals, paired
// per-seed deltas, and effect sizes. The battle subsystem turns these into
// win/loss/tie verdicts; single-run scheduler comparisons are
// noise-dominated, so every verdict in a battle matrix rests on the
// interval estimates computed here.
//
// Everything is a pure function of its inputs (including the bootstrap,
// which draws from a private seeded generator), so reports built on top
// stay byte-identical at any worker-pool width.

package stats

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Sample summarises one replicated measurement: n per-seed values of a
// single (scenario, metric, scheduler) cell.
type Sample struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"` // sample (n-1) standard deviation
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize computes a Sample over xs. The zero Sample is returned for
// empty input; a single value yields Stddev 0.
func Summarize(xs []float64) Sample {
	if len(xs) == 0 {
		return Sample{}
	}
	s := Sample{N: len(xs), Mean: Mean(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs[1:] {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Stddev = SampleStddev(xs)
	return s
}

// SampleStddev returns the sample (n-1 denominator) standard deviation of
// xs, the estimator inference wants; Stddev is its population counterpart.
// Fewer than two values yield 0.
func SampleStddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// splitmix64 is a tiny deterministic generator for bootstrap resampling.
// It is private to each BootstrapMeanCI call, so concurrent cells never
// share state and results depend only on (values, conf, iters, seed).
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift.
func (r *splitmix64) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// BootstrapMeanCI returns a percentile-bootstrap confidence interval for
// the mean of xs at confidence conf (e.g. 0.95), using iters resamples
// drawn from a generator seeded with seed. The interval is a pure function
// of the arguments: the same values, confidence, iteration count, and seed
// always produce the same bounds, which is what lets battle reports be
// byte-identical at any -jobs width.
//
// Degenerate inputs collapse the interval: no values yields (0, 0), a
// single value (x, x).
func BootstrapMeanCI(xs []float64, conf float64, iters int, seed int64) (lo, hi float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	if iters < 1 {
		iters = 1
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	rng := splitmix64{s: uint64(seed)}
	scratch := bootScratch(iters)
	defer bootPool.Put(scratch)
	means := (*scratch)[:iters]
	hasNaN := false
	for it := range means {
		var sum float64
		for i := 0; i < n; i++ {
			sum += xs[rng.intn(n)]
		}
		means[it] = sum / float64(n)
		hasNaN = hasNaN || math.IsNaN(means[it])
	}
	alpha := (1 - conf) / 2
	loIdx := int(alpha * float64(iters))
	hiIdx := int((1-alpha)*float64(iters)) - 1
	if hiIdx < loIdx {
		hiIdx = loIdx
	}
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	// Only two order statistics are read, and both sit in the tails, so
	// they are taken from heaps of the tails rather than a sort. Means that
	// compare equal are the same bits (a resample sum is never -0), so this
	// returns exactly what sorting would; NaN has no order to select by.
	if hasNaN {
		sort.Float64s(means)
		return means[loIdx], means[hiIdx]
	}
	return tails(means, loIdx, hiIdx)
}

// tails returns the values sorting a, which must hold no NaN, would put at
// lo and hi (lo ≤ hi), and reorders a. A max-heap in a[:lo+1] keeps the
// lo+1 smallest values met so far, so its root ends as the lower one; the
// rest, a[lo+1:], then holds every larger value, and a min-heap at its end
// keeps the len(a)-hi largest of them, whose root is the upper one. At the
// gate's 1 000 resamples and 95 % each heap holds 26 of them.
func tails(a []float64, lo, hi int) (float64, float64) {
	small := a[:lo+1]
	for i := len(small)/2 - 1; i >= 0; i-- {
		siftDown(small, i, true)
	}
	for i := len(small); i < len(a); i++ {
		if a[i] < small[0] {
			small[0], a[i] = a[i], small[0]
			siftDown(small, 0, true)
		}
	}
	if hi == lo {
		return small[0], small[0]
	}
	rest := a[lo+1:]
	large := rest[len(rest)-(len(a)-hi):]
	for i := len(large)/2 - 1; i >= 0; i-- {
		siftDown(large, i, false)
	}
	for i := range rest[:len(rest)-len(large)] {
		if rest[i] > large[0] {
			large[0], rest[i] = rest[i], large[0]
			siftDown(large, 0, false)
		}
	}
	return small[0], large[0]
}

// siftDown restores the heap property below h[i], in a max-heap or a
// min-heap.
func siftDown(h []float64, i int, maxHeap bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && above(h[c+1], h[c], maxHeap) {
			c++
		}
		if !above(h[c], h[i], maxHeap) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// above reports whether x belongs strictly above y in the heap.
func above(x, y float64, maxHeap bool) bool {
	if maxHeap {
		return x > y
	}
	return x < y
}

// bootPool recycles bootstrap resample buffers across BootstrapMeanCI
// calls. A battle matrix computes thousands of intervals at the same iters
// (10k resamples each by default), so without reuse the resample buffer
// dominates the inference pass's allocations. Pooling cannot perturb
// results: every retained slot is overwritten before it is read. The pool
// holds *[]float64 so Get/Put stay allocation-free (a bare slice would be
// boxed on every Put).
var bootPool = sync.Pool{New: func() any { return new([]float64) }}

// bootScratch returns a pooled buffer with capacity for iters slots.
// Callers return it with bootPool.Put once the interval bounds have been
// copied out.
func bootScratch(iters int) *[]float64 {
	p := bootPool.Get().(*[]float64)
	if cap(*p) < iters {
		*p = make([]float64, iters)
	}
	return p
}

// PairedDeltas returns b[i] - a[i] for matched replications: index i of
// both slices must come from the same seed, which the battle replication
// driver guarantees by running every scheduler over the same seed axis.
// The slices must be the same length; mismatched lengths are a programming
// error and panic.
func PairedDeltas(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("stats: PairedDeltas length mismatch")
	}
	d := make([]float64, len(a))
	for i := range a {
		d[i] = b[i] - a[i]
	}
	return d
}

// CohenD returns the one-sample Cohen's d of xs — mean over sample
// stddev — the paired-comparison effect size when xs holds per-seed
// deltas. It is 0 when undefined (fewer than two values, or zero
// variance), keeping reports JSON-marshalable; a significant verdict with
// effect 0 means "perfectly consistent direction, zero spread".
func CohenD(xs []float64) float64 {
	sd := SampleStddev(xs)
	if sd == 0 {
		return 0
	}
	return Mean(xs) / sd
}
