package ule

import (
	"repro/internal/runq"
	"repro/internal/sim"
	"repro/internal/topo"
)

// armBalancer schedules the periodic balancer on core 0 with a uniformly
// random period — "ULE also balances threads periodically, every 500-1500ms
// (the duration of the period is chosen randomly). The periodic load
// balancing is performed only by core 0."
func (s *Sched) armBalancer() {
	s.m.At(s.m.Now()+s.m.Rand().DurationIn(s.P.BalanceMin, s.P.BalanceMax), balancer{s})
}

// balancer is the periodic balancer's timer: it balances, then draws the
// next period.
type balancer struct{ s *Sched }

func (b balancer) Fire(*sim.Machine) {
	b.s.balance()
	b.s.armBalancer()
}

// balance is sched_balance as the paper describes it: repeatedly pair the
// most-loaded unused core (donor) with the least-loaded unused core
// (receiver) and migrate exactly one thread; a core may be donor or
// receiver at most once per invocation. It runs only from its own timer —
// never re-entered through Migrate — so one set of marks on Sched serves.
func (s *Sched) balance() {
	s.m.TraceBalance(s.m.Cores[0])
	s.m.Counters.Get("ule.balance_invocations").Inc(1)
	used := s.balanceUsed
	clear(used)
	for {
		donor, receiver := -1, -1
		hi, lo := -1, int(^uint(0)>>1)
		for id := range s.tdqs {
			// Offline cores report load 0 and would otherwise always win
			// the receiver slot, silently burning a donor pairing per
			// invocation on a core that can accept nothing.
			if used[id] || s.tdqs[id].core.Offline() {
				continue
			}
			load := s.tdqs[id].load
			if load > hi {
				hi, donor = load, id
			}
			if load < lo {
				lo, receiver = load, id
			}
		}
		if donor < 0 || receiver < 0 || donor == receiver {
			return
		}
		// Moving one thread must reduce imbalance.
		if hi-lo < 2 {
			return
		}
		moved := s.moveOne(donor, receiver)
		used[donor] = true
		used[receiver] = true
		if moved {
			s.m.Counters.Get("ule.balance_migrations").Inc(1)
		}
	}
}

// moveOne migrates one transferable thread from donor to receiver
// (tdq_move): never the running thread (the port's §3 constraint), FIFO
// order within the queues, interactive queue first.
func (s *Sched) moveOne(donor, receiver int) bool {
	t := s.stealableFrom(donor, receiver)
	if t == nil {
		return false
	}
	s.m.Migrate(t, s.m.Cores[donor], s.m.Cores[receiver])
	return true
}

// stealableFrom returns the first queued thread on donor that may run on
// the receiving core (runq_steal's scan order).
func (s *Sched) stealableFrom(donor, receiver int) *sim.Thread {
	q := &s.tdqs[donor]
	var found *sim.Thread
	take := func(e *runq.Entry) bool {
		t := e.Payload.(*sim.Thread)
		if !t.CanRunOn(receiver) {
			return true // keep scanning
		}
		found = t
		return false
	}
	q.realtime.Each(take)
	if found == nil {
		q.timeshare.Each(take)
	}
	return found
}

// IdleBalance implements sim.Scheduler (tdq_idled): an idle core steals one
// thread from the most loaded core sharing a cache, widening outward until
// something is found — "the idle stealing mechanism steals at most one
// thread".
func (s *Sched) IdleBalance(c *sim.Core) bool {
	// Fast path: stealing needs a victim with load >= StealThresh. While no
	// core is that loaded the widening scan below finds nothing and has no
	// side effects, so skip it — the common case on mostly-idle machines,
	// where every idle core retries this scan on every tick.
	if s.loaded == 0 {
		return false
	}
	for _, level := range []topo.Level{topo.LevelLLC, topo.LevelNUMA, topo.LevelMachine} {
		victim := -1
		most := s.P.StealThresh - 1
		for _, id := range s.m.Topo.Group(c.ID, level) {
			if id == c.ID {
				continue
			}
			if l := s.tdqs[id].load; l > most {
				most, victim = l, id
			}
		}
		if victim < 0 {
			continue
		}
		t := s.stealableFrom(victim, c.ID)
		if t == nil {
			continue
		}
		s.m.TraceSteal(c, s.m.Cores[victim], t)
		s.m.Counters.Get("ule.steals").Inc(1)
		s.m.Migrate(t, s.m.Cores[victim], c)
		return true
	}
	return false
}
