package sim

import (
	"math/rand"
	"time"
)

// eventKind tags a typed timer event. The hot timer paths — scheduler
// ticks, burst ends, timed sleep wake-ups — are fully described by
// (kind, target, token) and stored inline in the event queue, so arming
// them allocates nothing. Every other timer is a Timer value armed with
// Machine.At: the event names its slot in the machine's timer table.
type eventKind uint8

const (
	// evTimer fires the Timer in slot id of Machine.timers.
	evTimer eventKind = iota
	// evTick is a per-core scheduler tick. Ticks stand in the rotor
	// (rotor.go), never in the queue: Machine.nextEvent builds the event
	// when the rotor's head is due.
	evTick
	// evStaleTick is a tick superseded by OfflineCore: a counted no-op,
	// popped from the rotor or — evicted by a re-arm — from the queue.
	evStaleTick
	// evBurstEnd completes the running thread's CPU burst on a core; token
	// is validated against Machine.burstTok[core].
	evBurstEnd
	// evSleepWake ends a timed OpSleep; token is validated against
	// Machine.sleepTok[tid-1].
	evSleepWake
)

// event is one scheduled occurrence. Ordering is (at, seq): equal-time
// events fire in scheduling order, making the simulation fully
// deterministic. The struct carries no pointers: targets are dense IDs
// (cores, threads) or timer slots, validated by token where an in-flight
// event can be superseded.
type event struct {
	at    time.Duration
	seq   uint64
	token uint64
	// armed is the simulated time the event was scheduled; tick re-arming
	// on OnlineCore consults it to reproduce never-offline same-timestamp
	// ordering (see Core.nextGridTick).
	armed time.Duration
	id    int32 // core ID (tick, burstEnd) or timer slot (timer)
	tid   int32 // thread ID (burstEnd, sleepWake)
	kind  eventKind
}

// eventHeap is a binary min-heap of events ordered by (at, seq): the
// original engine queue, kept as the reference engine tests cross-validate
// the wheel against (forceEventHeap) and as the wheel's overflow structure.
type eventHeap struct {
	es []event
}

func (h *eventHeap) len() int { return len(h.es) }

// eventBefore reports whether a fires before b: (at, seq) lexicographic,
// and seq is unique, so this is a total order.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, sifting a hole up instead of swapping: each step copies
// one parent down, and e lands once.
func (h *eventHeap) push(e event) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(&e, &h.es[p]) {
			break
		}
		h.es[i] = h.es[p]
		i = p
	}
	h.es[i] = e
}

// pop removes the minimum, sifting the displaced tail element down through
// a hole. The vacated tail slot is zeroed so it cannot leak a stale event:
// heap elements are pointer-free, but the invariant keeps the leak fixed if
// a reference-carrying field is ever added back (a Timer itself is
// released from Machine.timers when its event fires).
func (h *eventHeap) pop() event {
	top := h.es[0]
	last := len(h.es) - 1
	e := h.es[last]
	h.es[last] = event{}
	h.es = h.es[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && eventBefore(&h.es[r], &h.es[c]) {
				c = r
			}
			if !eventBefore(&h.es[c], &e) {
				break
			}
			h.es[i] = h.es[c]
			i = c
		}
		h.es[i] = e
	}
	return top
}

// Rand is the machine's deterministic PRNG. It wraps math/rand so every
// consumer (schedulers' balance jitter, workload think times) draws from
// one seeded stream in event order.
type Rand struct {
	r *rand.Rand
}

func newRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (r *Rand) Int63n(n int64) int64 { return r.r.Int63n(n) }

// DurationIn returns a uniform duration in [lo, hi).
func (r *Rand) DurationIn(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.r.Int63n(int64(hi-lo)))
}
