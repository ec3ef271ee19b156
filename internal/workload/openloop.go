package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ipc"
	"repro/internal/sim"
)

// This file is the open-loop traffic source: a deterministic arrival-time
// generator plus the machinery that injects those arrivals into a request
// queue from timer context. Closed-loop clients (BatchClient, the sysbench
// think-time loop) slow their offered load down when the server slows down,
// which hides scheduling-induced latency; an open-loop source keeps pushing
// at the configured rate regardless of completions, so queueing delay — the
// tail-latency signal the paper's Table 2 measures — is exposed rather than
// absorbed by the client.

// ArrivalDist selects the inter-arrival distribution of an open-loop source.
type ArrivalDist string

const (
	// Poisson draws exponential inter-arrivals (a memoryless stream, the
	// standard open-loop traffic model).
	Poisson ArrivalDist = "poisson"
	// Uniform draws inter-arrivals uniformly in [mean/2, 3*mean/2): the
	// same offered load with bounded burstiness.
	Uniform ArrivalDist = "uniform"
	// Periodic emits one arrival exactly every mean: a constant-rate
	// injector with no randomness at all.
	Periodic ArrivalDist = "periodic"
)

// ValidDist reports whether d names a supported distribution.
func ValidDist(d ArrivalDist) bool {
	switch d {
	case Poisson, Uniform, Periodic:
		return true
	}
	return false
}

// ArrivalGen produces a deterministic stream of inter-arrival times. It owns
// a private PRNG seeded explicitly, so the stream is a pure function of
// (dist, mean, seed) — independent of everything else the simulation draws,
// which is what lets a scenario keep its offered traffic fixed while
// scheduler randomness varies underneath it.
type ArrivalGen struct {
	dist ArrivalDist
	mean time.Duration
	rng  *rand.Rand
}

// NewArrivalGen returns a generator with the given distribution and mean
// inter-arrival time. It panics on a non-positive mean or an unknown
// distribution; validate specs before building generators.
func NewArrivalGen(dist ArrivalDist, mean time.Duration, seed int64) *ArrivalGen {
	if mean <= 0 {
		panic(fmt.Sprintf("workload: ArrivalGen mean must be positive, got %v", mean))
	}
	if !ValidDist(dist) {
		panic(fmt.Sprintf("workload: unknown arrival distribution %q", dist))
	}
	return &ArrivalGen{dist: dist, mean: mean, rng: rand.New(rand.NewSource(seed))}
}

// Reseed restarts the stream as NewArrivalGen would with seed: a
// generator built before its seed is known is seeded in place.
func (g *ArrivalGen) Reseed(seed int64) { g.rng.Seed(seed) }

// Next returns the next inter-arrival time, always positive. Exponential
// draws are capped at 100× the mean so one extreme tail sample cannot stall
// the stream for the rest of a measurement window.
func (g *ArrivalGen) Next() time.Duration {
	var d time.Duration
	switch g.dist {
	case Poisson:
		d = time.Duration(g.rng.ExpFloat64() * float64(g.mean))
		if d > 100*g.mean {
			d = 100 * g.mean
		}
	case Uniform:
		d = g.mean/2 + time.Duration(g.rng.Int63n(int64(g.mean)))
	default: // Periodic
		d = g.mean
	}
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// OpenLoop describes one open-loop request stream: arrivals drawn from Gen
// are pushed into Q with the given per-request CPU demand, and Q records
// each request's arrival-to-completion latency. Serving threads are the
// caller's business — any ServerWorker pool draining Q completes the loop.
type OpenLoop struct {
	// Q receives the generated requests.
	Q *ipc.ReqQueue
	// Gen produces the inter-arrival stream.
	Gen *ArrivalGen
	// Service is each request's CPU demand at the server.
	Service time.Duration
	// ServiceJitterPct varies Service uniformly by ±pct per request, drawn
	// from Gen's private PRNG so the whole offered trace stays a pure
	// function of the generator seed.
	ServiceJitterPct int
	// Start delays the first arrival window by this absolute machine time.
	Start time.Duration

	started bool
}

// Next implements sim.Program, so a Forker can start the stream as its
// continuation: the first call arms it at that instant, and the thread
// then sleeps forever.
func (ol *OpenLoop) Next(ctx *sim.Ctx) sim.Op {
	if !ol.started {
		ol.started = true
		ol.StartOn(ctx.M)
	}
	return sim.Sleep(time.Hour)
}

// StartOn arms the injection timer chain on m: the stream is its own
// sim.Timer, re-armed once per arrival. Arrivals fire from timer context —
// no injector thread occupies a core, so the offered load is independent
// of scheduling, the defining property of an open-loop source. Scheduling
// an arrival allocates nothing beyond the engine's free-listed timer slot.
func (ol *OpenLoop) StartOn(m *sim.Machine) {
	if ol.Q == nil || ol.Gen == nil {
		panic("workload: OpenLoop needs Q and Gen")
	}
	if ol.Service <= 0 {
		panic("workload: OpenLoop needs a positive Service time")
	}
	m.At(ol.Start+ol.Gen.Next(), ol)
}

// Fire implements sim.Timer: one arrival, then the next one armed.
func (ol *OpenLoop) Fire(m *sim.Machine) {
	ol.Q.Push(m, ol.service())
	m.At(m.Now()+ol.Gen.Next(), ol)
}

// service returns the next per-request CPU demand.
func (ol *OpenLoop) service() time.Duration {
	if ol.ServiceJitterPct <= 0 {
		return ol.Service
	}
	span := int64(ol.Service) * int64(ol.ServiceJitterPct) / 100
	if span <= 0 {
		return ol.Service
	}
	return ol.Service + time.Duration(ol.Gen.rng.Int63n(2*span+1)-span)
}
