package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should read zero")
	}
	for i := 0; i < 1000; i++ {
		h.Observe(10 * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 10*time.Millisecond {
		t.Fatalf("Mean = %v", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 9*time.Millisecond || p50 > 11*time.Millisecond {
		t.Fatalf("p50 = %v, want ~10ms", p50)
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 10*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %v = %v < previous %v", q, v, prev)
		}
		prev = v
	}
	// ~4% relative bucket precision: p50 should be near 50ms.
	p50 := h.Quantile(0.5)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", p50)
	}
}

func TestHistogramNegativeAndHuge(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	h.Observe(1000 * time.Hour)
	if h.Count() != 2 {
		t.Fatal("samples lost")
	}
	if h.Quantile(1) <= 0 {
		t.Fatal("max bucket collapsed")
	}
}

func TestHistogramQuantileWithinBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		var h Histogram
		for _, r := range raw {
			h.Observe(time.Duration(r%10_000_000) * time.Microsecond)
		}
		if h.Count() == 0 {
			return true
		}
		q := h.Quantile(0.5)
		// Bucketed quantile must lie within [min lowered a bucket, max].
		return q <= h.Max() && float64(q) >= float64(h.Min())*0.9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	for i := 1; i <= 50; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
		all.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 51; i <= 100; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
		all.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(&b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), all.Count())
	}
	if a.Mean() != all.Mean() {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merged min/max = %v/%v, want %v/%v", a.Min(), a.Max(), all.Min(), all.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Fatalf("merged q%v = %v, want %v", q, got, want)
		}
	}

	// Merging empty or nil histograms changes nothing.
	before := a
	a.Merge(&Histogram{})
	a.Merge(nil)
	if a != before {
		t.Fatal("merge with empty/nil modified histogram")
	}

	// Merging into an empty histogram adopts min/max verbatim.
	var c Histogram
	c.Merge(&b)
	if c.Min() != b.Min() || c.Max() != b.Max() || c.Count() != b.Count() {
		t.Fatalf("empty.Merge: min/max/count = %v/%v/%d", c.Min(), c.Max(), c.Count())
	}
}

func TestCounterSet(t *testing.T) {
	cs := NewCounterSet()
	cs.Get("x").Inc(3)
	cs.Get("x").Inc(2)
	if got := cs.Value("x"); got != 5 {
		t.Fatalf("Value(x) = %d", got)
	}
	if got := cs.Value("missing"); got != 0 {
		t.Fatalf("Value(missing) = %d", got)
	}
	if n := cs.Names(); len(n) != 1 || n[0] != "x" {
		t.Fatalf("Names = %v", n)
	}
}

func TestMeanStddevSpread(t *testing.T) {
	if Mean(nil) != 0 || Stddev(nil) != 0 || MaxMinSpread(nil) != 0 {
		t.Fatal("empty inputs should read zero")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Stddev(xs); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
	if got := MaxMinSpread(xs); got != 7 {
		t.Fatalf("Spread = %v", got)
	}
}

// TestHistogramLazyBucketsMatchEager: a histogram that allocates its
// buckets on first use answers exactly as one that saw every sample
// directly. Random samples are split over histograms (some left empty) and
// merged in random order into one that has never observed; Count, Mean,
// Min, Max and every Quantile must equal the directly-observed ones, an
// empty Merge must allocate nothing, and merging must not touch the source.
func TestHistogramLazyBucketsMatchEager(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{math.NaN(), -1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2}
	for trial := 0; trial < 500; trial++ {
		parts := make([]Histogram, 1+rng.Intn(6))
		var eager, merged Histogram
		for n := rng.Intn(200); n > 0; n-- {
			d := time.Duration(rng.ExpFloat64() * float64(time.Duration(1+rng.Intn(4))*time.Millisecond))
			if rng.Intn(20) == 0 {
				d = -d
			}
			parts[rng.Intn(len(parts))].Observe(d)
			eager.Observe(d)
		}
		for _, i := range rng.Perm(len(parts)) {
			src := parts[i]
			var snapshot [bucketCount]uint64
			if src.buckets != nil {
				snapshot = *src.buckets
			}
			merged.Merge(&parts[i])
			if (parts[i].buckets == nil) != (src.count == 0) || parts[i] != src ||
				(src.buckets != nil && *src.buckets != snapshot) {
				t.Fatalf("trial %d: Merge changed its source", trial)
			}
		}
		if (merged.buckets == nil) != (eager.Count() == 0) {
			t.Fatalf("trial %d: %d samples but buckets allocated = %v", trial, eager.Count(), merged.buckets != nil)
		}
		if merged.Count() != eager.Count() || merged.Mean() != eager.Mean() ||
			merged.Min() != eager.Min() || merged.Max() != eager.Max() {
			t.Fatalf("trial %d: merged %v, eager %v", trial, merged.String(), eager.String())
		}
		for _, q := range qs {
			if got, want := merged.Quantile(q), eager.Quantile(q); got != want {
				t.Fatalf("trial %d: Quantile(%v) = %v, eager %v", trial, q, got, want)
			}
		}
		if eager.buckets != nil && *merged.buckets != *eager.buckets {
			t.Fatalf("trial %d: merged buckets differ from eager ones", trial)
		}
	}
}

// TestHistogramEmptyContract pins the empty-histogram contract: every
// summary accessor returns exactly 0 with no samples — never an
// uninitialised or stale extreme — and a NaN quantile cannot poison the
// bucket walk.
func TestHistogramEmptyContract(t *testing.T) {
	var h Histogram
	if h.Count() != 0 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty summary = mean %v min %v max %v, want all 0", h.Mean(), h.Min(), h.Max())
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN()} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if got := h.String(); got != "n=0 mean=0s p50=0s p99=0s max=0s" {
		t.Fatalf("empty String = %q", got)
	}

	// Merging empties stays empty; merging an empty into a populated
	// histogram must not disturb its min.
	var o Histogram
	h.Merge(&o)
	h.Merge(nil)
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty merge changed state: %v", h.String())
	}
	h.Observe(5 * time.Millisecond)
	h.Merge(&o)
	if h.Count() != 1 || h.Min() != 5*time.Millisecond {
		t.Fatalf("merge of empty disturbed samples: %v", h.String())
	}

	// A NaN quantile on a populated histogram reads as q=0, the lowest
	// bucket with samples, not garbage.
	if got, want := h.Quantile(math.NaN()), h.Quantile(0); got != want {
		t.Fatalf("Quantile(NaN) = %v, want Quantile(0) = %v", got, want)
	}
}

// TestBucketOfMatchesLog holds the table-driven bucketOf to the logarithm
// that defines the buckets, on every nanosecond where they could part: a
// few either side of each bucket bound and of each power of two (where the
// octave and the guess change), the range ends, and 10 M random durations
// over 0…200 s, uniform and log-uniform so that the short buckets are hit
// as densely as the long ones.
func TestBucketOfMatchesLog(t *testing.T) {
	check := func(d time.Duration) {
		if d < 0 {
			return
		}
		if got, want := bucketOf(d), bucketOfLog(d); got != want {
			t.Fatalf("bucketOf(%d ns) = %d, the logarithm gives %d", d, got, want)
		}
	}
	for i, b := range bucketBound {
		if i > 0 && b <= bucketBound[i-1] {
			t.Fatalf("bound %d (%d ns) not above bound %d (%d ns)", i, b, i-1, bucketBound[i-1])
		}
		if bucketOfLog(b) != i || (b > histBase && bucketOfLog(b-1) != i-1) {
			t.Fatalf("bound %d = %d ns is not where the logarithm enters the bucket", i, b)
		}
		for off := time.Duration(-3); off <= 3; off++ {
			check(b + off)
		}
	}
	for e := 0; e < 63; e++ {
		for off := time.Duration(-3); off <= 3; off++ {
			check(time.Duration(1)<<e + off)
		}
	}
	check(0)
	check(math.MaxInt64)
	rng := rand.New(rand.NewSource(20))
	const span = 200 * time.Second
	for i := 0; i < 5_000_000; i++ {
		check(time.Duration(rng.Int63n(int64(span))))
		check(time.Duration(math.Exp(rng.Float64() * math.Log(float64(span)))))
	}
}

// BenchmarkHistogramObserve prices one Observe over durations spread
// log-uniformly from 1µs to 10 s.
func BenchmarkHistogramObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := make([]time.Duration, 4096)
	for i := range ds {
		ds[i] = time.Duration(1e3 * math.Exp(rng.Float64()*math.Log(1e7)))
	}
	var h Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(ds[i&4095])
	}
}
