package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/ipc"
)

// drawN collects n inter-arrival samples.
func drawN(g *ArrivalGen, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestArrivalGenDeterministicStream(t *testing.T) {
	for _, dist := range []ArrivalDist{Poisson, Uniform, Periodic} {
		a := drawN(NewArrivalGen(dist, time.Millisecond, 7), 1000)
		b := drawN(NewArrivalGen(dist, time.Millisecond, 7), 1000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: sample %d differs across identical generators: %v vs %v", dist, i, a[i], b[i])
			}
		}
	}
}

// TestArrivalGenReseedRestartsStream: a generator seeded in place, even
// after it has drawn, yields the stream of one built with that seed.
func TestArrivalGenReseedRestartsStream(t *testing.T) {
	for _, dist := range []ArrivalDist{Poisson, Uniform} {
		for _, seed := range []int64{1, 7, 1<<62 - 5} {
			g := NewArrivalGen(dist, time.Millisecond, 0)
			drawN(g, 3)
			g.Reseed(seed)
			a := drawN(g, 1000)
			b := drawN(NewArrivalGen(dist, time.Millisecond, seed), 1000)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s seed %d: sample %d differs after Reseed: %v vs %v", dist, seed, i, a[i], b[i])
				}
			}
		}
	}
}

func TestArrivalGenSeedChangesStream(t *testing.T) {
	for _, dist := range []ArrivalDist{Poisson, Uniform} {
		a := drawN(NewArrivalGen(dist, time.Millisecond, 7), 100)
		b := drawN(NewArrivalGen(dist, time.Millisecond, 8), 100)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical streams", dist)
		}
	}
}

func TestArrivalGenDistributions(t *testing.T) {
	mean := time.Millisecond

	// Periodic: exactly the mean, every time.
	for i, d := range drawN(NewArrivalGen(Periodic, mean, 1), 10) {
		if d != mean {
			t.Fatalf("periodic sample %d = %v, want %v", i, d, mean)
		}
	}

	// Uniform: bounded in [mean/2, 3*mean/2), empirical mean near mean.
	us := drawN(NewArrivalGen(Uniform, mean, 2), 5000)
	var sum time.Duration
	for i, d := range us {
		if d < mean/2 || d >= mean+mean/2 {
			t.Fatalf("uniform sample %d = %v out of [%v, %v)", i, d, mean/2, mean+mean/2)
		}
		sum += d
	}
	if got := float64(sum) / float64(len(us)) / float64(mean); math.Abs(got-1) > 0.05 {
		t.Fatalf("uniform empirical mean = %.3f× configured", got)
	}

	// Poisson: positive, capped, empirical mean near mean.
	ps := drawN(NewArrivalGen(Poisson, mean, 3), 20000)
	sum = 0
	for i, d := range ps {
		if d <= 0 || d > 100*mean {
			t.Fatalf("poisson sample %d = %v out of (0, %v]", i, d, 100*mean)
		}
		sum += d
	}
	if got := float64(sum) / float64(len(ps)) / float64(mean); math.Abs(got-1) > 0.05 {
		t.Fatalf("poisson empirical mean = %.3f× configured", got)
	}
}

func TestOpenLoopOfferedLoadIndependentOfService(t *testing.T) {
	// A periodic 1 ms stream for 100 ms offers ~100 requests whether the
	// server keeps up (fast service) or not (slow service) — the defining
	// open-loop property a closed-loop client lacks.
	for _, service := range []time.Duration{50 * time.Microsecond, 5 * time.Millisecond} {
		m := newMachine(1)
		q := ipc.NewReqQueue()
		(&OpenLoop{
			Q:       q,
			Gen:     NewArrivalGen(Periodic, time.Millisecond, 1),
			Service: service,
		}).StartOn(m)
		srv := &ServerWorker{Q: q}
		m.StartThread("srv", "srv", 0, srv)
		m.Run(100 * time.Millisecond)
		// Every arrival is served, queued, or in service at the worker.
		arrivals := q.Completed + uint64(q.Depth())
		if srv.hasReq {
			arrivals++
		}
		if arrivals != 100 {
			t.Fatalf("service %v: offered %d arrivals, want 100", service, arrivals)
		}
		if service == 50*time.Microsecond && q.Completed < 95 {
			t.Fatalf("fast server completed only %d of %d", q.Completed, arrivals)
		}
		if service == 5*time.Millisecond && q.Completed > 25 {
			t.Fatalf("slow server completed %d, expected a backlog", q.Completed)
		}
		if q.Latency.Count() != q.Completed {
			t.Fatalf("latency samples %d != completed %d", q.Latency.Count(), q.Completed)
		}
	}
}

func TestOpenLoopLatencyGrowsWhenOverloaded(t *testing.T) {
	m := newMachine(1)
	q := ipc.NewReqQueue()
	// Offered load 2× one core: queueing delay must dominate service time.
	(&OpenLoop{
		Q:       q,
		Gen:     NewArrivalGen(Periodic, time.Millisecond, 1),
		Service: 2 * time.Millisecond,
	}).StartOn(m)
	m.StartThread("srv", "srv", 0, &ServerWorker{Q: q})
	m.Run(200 * time.Millisecond)
	if q.Completed < 50 {
		t.Fatalf("completed %d, want ≥50", q.Completed)
	}
	if p99 := q.Latency.Quantile(0.99); p99 < 20*time.Millisecond {
		t.Fatalf("p99 latency %v under 2× overload, expected heavy queueing", p99)
	}
}

func TestOpenLoopStartDelaysFirstArrival(t *testing.T) {
	m := newMachine(1)
	q := ipc.NewReqQueue()
	(&OpenLoop{
		Q:       q,
		Gen:     NewArrivalGen(Periodic, time.Millisecond, 1),
		Service: 10 * time.Microsecond,
		Start:   50 * time.Millisecond,
	}).StartOn(m)
	m.StartThread("srv", "srv", 0, &ServerWorker{Q: q})
	m.Run(49 * time.Millisecond)
	if q.Completed != 0 || q.Depth() != 0 {
		t.Fatalf("arrivals before Start: completed=%d depth=%d", q.Completed, q.Depth())
	}
	m.Run(100 * time.Millisecond)
	if q.Completed == 0 {
		t.Fatal("no arrivals after Start")
	}
}

func TestOpenLoopServiceJitterStaysDeterministic(t *testing.T) {
	run := func() uint64 {
		m := newMachine(2)
		q := ipc.NewReqQueue()
		(&OpenLoop{
			Q:       q,
			Gen:     NewArrivalGen(Poisson, 500*time.Microsecond, 11),
			Service: 300 * time.Microsecond, ServiceJitterPct: 30,
		}).StartOn(m)
		for i := 0; i < 4; i++ {
			m.StartThread("srv", "srv", 0, &ServerWorker{Q: q})
		}
		m.Run(100 * time.Millisecond)
		return q.Completed
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Fatalf("jittered open loop not deterministic: %d vs %d", a, b)
	}
}
