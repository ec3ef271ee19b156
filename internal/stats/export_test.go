package stats

import "sort"

// Reference implementations the differential tests hold the shipped ones to.

// bootstrapMeanCISorted is BootstrapMeanCI as it was before it selected its
// two order statistics: the same resamples, fully sorted.
func bootstrapMeanCISorted(xs []float64, conf float64, iters int, seed int64) (lo, hi float64) {
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
	means := make([]float64, iters)
	for it := range means {
		var sum float64
		for i := 0; i < n; i++ {
			sum += xs[rng.intn(n)]
		}
		means[it] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - conf) / 2
	loIdx := int(alpha * float64(iters))
	hiIdx := int((1-alpha)*float64(iters)) - 1
	if hiIdx < loIdx {
		hiIdx = loIdx
	}
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	return means[loIdx], means[hiIdx]
}
