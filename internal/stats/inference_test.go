package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 2, 6, 8})
	if s.N != 4 || s.Mean != 5 || s.Min != 2 || s.Max != 8 {
		t.Fatalf("Summarize = %+v", s)
	}
	// Sample stddev of {4,2,6,8}: variance = (1+9+1+9)/3 = 20/3.
	want := math.Sqrt(20.0 / 3.0)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Fatalf("Stddev = %g, want %g", s.Stddev, want)
	}
	if z := Summarize(nil); z != (Sample{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", z)
	}
}

func TestSampleStddevEdges(t *testing.T) {
	if got := SampleStddev(nil); got != 0 {
		t.Fatalf("SampleStddev(nil) = %g", got)
	}
	if got := SampleStddev([]float64{3}); got != 0 {
		t.Fatalf("SampleStddev(one) = %g", got)
	}
	if got := SampleStddev([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("SampleStddev(const) = %g", got)
	}
}

func TestBootstrapMeanCIDeterministic(t *testing.T) {
	xs := []float64{10, 12, 9, 14, 11}
	lo1, hi1 := BootstrapMeanCI(xs, 0.95, 1000, 42)
	lo2, hi2 := BootstrapMeanCI(xs, 0.95, 1000, 42)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("same seed diverged: [%g,%g] vs [%g,%g]", lo1, hi1, lo2, hi2)
	}
	if !(lo1 <= hi1) {
		t.Fatalf("inverted interval [%g, %g]", lo1, hi1)
	}
	// The interval must bracket plausible means: within the data range and
	// containing the point estimate for this symmetric-ish sample.
	m := Mean(xs)
	if lo1 < 9 || hi1 > 14 || m < lo1 || m > hi1 {
		t.Fatalf("implausible interval [%g, %g] around mean %g", lo1, hi1, m)
	}
}

func TestBootstrapMeanCIEdges(t *testing.T) {
	if lo, hi := BootstrapMeanCI(nil, 0.95, 100, 1); lo != 0 || hi != 0 {
		t.Fatalf("empty input: [%g, %g]", lo, hi)
	}
	if lo, hi := BootstrapMeanCI([]float64{7}, 0.95, 100, 1); lo != 7 || hi != 7 {
		t.Fatalf("single value: [%g, %g]", lo, hi)
	}
	// Constant data collapses the interval to the constant.
	if lo, hi := BootstrapMeanCI([]float64{3, 3, 3, 3}, 0.95, 100, 1); lo != 3 || hi != 3 {
		t.Fatalf("constant data: [%g, %g]", lo, hi)
	}
}

func TestPairedDeltas(t *testing.T) {
	d := PairedDeltas([]float64{1, 2, 3}, []float64{2, 2, 1})
	if d[0] != 1 || d[1] != 0 || d[2] != -2 {
		t.Fatalf("PairedDeltas = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	PairedDeltas([]float64{1}, []float64{1, 2})
}

func TestCohenD(t *testing.T) {
	if got := CohenD([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("zero-variance CohenD = %g, want 0", got)
	}
	if got := CohenD(nil); got != 0 {
		t.Fatalf("empty CohenD = %g, want 0", got)
	}
	// mean 2, sample stddev 2 -> d = 1.
	xs := []float64{0, 2, 4}
	if got := CohenD(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("CohenD = %g, want 1", got)
	}
}

// TestBootstrapMeanCIPooledScratchIsDeterministic pins that buffer reuse
// cannot leak state between calls: interleaved calls with different inputs
// (dirtying the pooled buffer) reproduce the exact bounds of fresh calls.
func TestBootstrapMeanCIPooledScratchIsDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{100, 200, 300}
	lo1, hi1 := BootstrapMeanCI(xs, 0.95, 1000, 42)
	for i := 0; i < 10; i++ {
		BootstrapMeanCI(ys, 0.9, 500, int64(i)) // dirty the pooled scratch
		lo2, hi2 := BootstrapMeanCI(xs, 0.95, 1000, 42)
		if lo2 != lo1 || hi2 != hi1 {
			t.Fatalf("round %d: [%g, %g] != first call [%g, %g]", i, lo2, hi2, lo1, hi1)
		}
	}
}

// TestBootstrapMeanCIMatchesSorting holds BootstrapMeanCI, which reads its
// two order statistics off heaps of the tails, to the sorting one it
// replaced, bit for bit. First the shapes battles use — iters 1 000, 1 001,
// 2 000 and 10 000 × 2, 5 and 10 values × confidence 0.8, 0.9, 0.95 and
// 0.99 — and confidences so low that the two heaps together hold about all
// of the means. Then 10 000 random cases: few and many values, heavy ties
// (so that most resample means coincide), infinities and signed zeros, NaN
// (the sorting fallback), small iteration counts (heaps of one or two),
// and confidences in and out of range.
func TestBootstrapMeanCIMatchesSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	check := func(xs []float64, conf float64, iters int, seed int64) {
		t.Helper()
		lo, hi := BootstrapMeanCI(xs, conf, iters, seed)
		wlo, whi := bootstrapMeanCISorted(xs, conf, iters, seed)
		if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
			t.Fatalf("xs %v conf %g iters %d seed %d: [%g, %g], sorting gives [%g, %g]",
				xs, conf, iters, seed, lo, hi, wlo, whi)
		}
	}
	for _, iters := range []int{1000, 1001, 2000, 10000} {
		for _, n := range []int{2, 5, 10} {
			for _, conf := range []float64{0.8, 0.9, 0.95, 0.99, 0.01, 0.003, 0.001, 1e-9} {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = 90 + rng.NormFloat64()
				}
				check(xs, conf, iters, rng.Int63())
			}
		}
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	for c := 0; c < 10000; c++ {
		xs := make([]float64, 2+rng.Intn(12))
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = float64(rng.Intn(3)) // ties
			case 1:
				xs[i] = rng.NormFloat64() * 1e3
			default:
				xs[i] = 90 + rng.Float64()
			}
			if c%10 == 0 && rng.Intn(4) == 0 {
				xs[i] = special[rng.Intn(len(special))]
			}
		}
		iters := 1 + rng.Intn(40)
		if c%4 == 0 {
			iters = 1 + rng.Intn(3000)
		}
		conf := []float64{0.95, 0.9, 0.5, 0.999, 0.01, rng.Float64(), 0, 1, -1}[rng.Intn(9)]
		check(xs, conf, iters, rng.Int63()-1<<62)
	}
}

// BenchmarkBootstrapMeanCI times one interval and tracks the inference hot
// path's allocation behavior: with the pooled resample scratch the steady
// state must not allocate per call (b.ReportAllocs makes regressions
// visible). "gate" is the shape the -check gate computes thousands of
// times (five seeds, 1 000 resamples); "wide" is ten values at 10 000.
func BenchmarkBootstrapMeanCI(b *testing.B) {
	for _, bc := range []struct {
		name  string
		xs    []float64
		iters int
	}{
		{"gate", []float64{91.2, 88.7, 90.1, 89.9, 92.4}, 1000},
		{"wide", []float64{91.2, 88.7, 90.1, 89.9, 92.4, 87.3, 90.8, 91.5, 89.2, 90.4}, 10000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BootstrapMeanCI(bc.xs, 0.95, bc.iters, int64(i))
			}
		})
	}
}
