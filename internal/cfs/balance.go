package cfs

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// balanceTick drives the periodic balancer from the scheduler tick: every
// BalanceInterval each core balances within its LLC, and on a stretched
// interval across NUMA nodes — "every 4ms every core tries to steal work
// from other cores ... cores try to steal work more frequently from cores
// that are close to them" (§2.1).
func (s *Sched) balanceTick(c *sim.Core, cs *coreState) {
	if s.balanced() {
		return
	}
	interval := int(s.P.BalanceInterval / s.TickPeriod())
	if interval < 1 {
		interval = 1
	}
	// Stagger cores across the interval.
	if (cs.ticks+c.ID)%interval == 0 {
		if s.rebalanceLLC(c) {
			s.m.TraceBalance(c)
		}
	}
	numaInterval := interval * s.P.NUMABalanceMult
	if (cs.ticks+c.ID)%numaInterval == 0 {
		if s.rebalanceNUMA(c) {
			s.m.TraceBalance(c)
		}
	}
}

// balanced reports that no balance pass can pull right now, so none needs
// to run. rebalanceLLC and rebalanceNUMA both give up, before their first
// side effect, unless the busiest core they find carries more than
// smallImbalance above c's own load; while no core carries that much on its
// own (heavy == 0) neither gets further — the state of most ticks and most
// idle transitions on a machine that is not overloaded.
func (s *Sched) balanced() bool { return s.heavy == 0 && !s.fullBalance }

// smallImbalance is the load difference below which the balancer leaves a
// pair of cores alone: sub-1.5-task differences are noise, moving a whole
// task would just reverse them (fix_small_imbalance).
const smallImbalance = nice0Weight * 3 / 2

// newidle is the immediate balance a core runs when it becomes idle
// ("cores also immediately call the periodic load balancer when they
// become idle").
func (s *Sched) newidle(c *sim.Core) bool {
	if s.balanced() {
		return false
	}
	if s.rebalanceLLC(c) {
		return true
	}
	return s.rebalanceNUMA(c)
}

// rebalanceLLC pulls load from the busiest core in c's LLC domain.
func (s *Sched) rebalanceLLC(c *sim.Core) bool {
	cs := &s.cores[c.ID]
	group := s.m.Topo.Group(c.ID, topo.LevelLLC)
	busiest := s.busiestCore(group, c.ID)
	if busiest < 0 {
		return false
	}
	bs := &s.cores[busiest]
	if bs.runnableLoad()*100 <= cs.runnableLoad()*int64(s.P.LLCImbalancePct) {
		return false
	}
	if bs.runnableLoad()-cs.runnableLoad() <= smallImbalance {
		return false
	}
	imbalance := (bs.runnableLoad() - cs.runnableLoad()) / 2
	n := s.pullFrom(busiest, c, imbalance)
	if n > 0 {
		s.m.Counters.Get("cfs.mig_llc").Inc(uint64(n))
	}
	return n > 0
}

// rebalanceNUMA compares node-average loads and pulls from the busiest
// node's busiest core when the 25% threshold is exceeded — the mechanism
// behind Figure 6's imperfect final balance.
func (s *Sched) rebalanceNUMA(c *sim.Core) bool {
	tp := s.m.Topo
	if tp.NNodes() < 2 {
		return false
	}
	myNode := tp.NodeOf(c.ID)
	localAvg := s.nodeAvgLoad(myNode)
	bestNode, bestAvg := -1, int64(0)
	for n := 0; n < tp.NNodes(); n++ {
		if n == myNode {
			continue
		}
		avg := s.nodeAvgLoad(n)
		if avg > bestAvg {
			bestNode, bestAvg = n, avg
		}
	}
	if bestNode < 0 {
		return false
	}
	// "If the load difference between the nodes is small (less than 25% in
	// practice), then no load balancing is performed."
	if bestAvg*100 <= localAvg*int64(s.P.NUMAImbalancePct) {
		return false
	}
	busiest := s.busiestCore(tp.NodeCores(bestNode), c.ID)
	if busiest < 0 {
		return false
	}
	bs := &s.cores[busiest]
	cs := &s.cores[c.ID]
	if bs.runnableLoad()-cs.runnableLoad() <= smallImbalance {
		return false
	}
	imbalance := (bs.runnableLoad() - cs.runnableLoad()) / 2
	n := s.pullFrom(busiest, c, imbalance)
	if n > 0 {
		s.m.Counters.Get("cfs.mig_numa").Inc(uint64(n))
	}
	return n > 0
}

// busiestCore returns the id of the highest-loaded core in ids (excluding
// self), or -1 if none carries load.
func (s *Sched) busiestCore(ids []int, self int) int {
	best, bestLoad := -1, int64(0)
	for _, id := range ids {
		if id == self {
			continue
		}
		if l := s.cores[id].runnableLoad(); l > bestLoad {
			best, bestLoad = id, l
		}
	}
	return best
}

// nodeAvgLoad is the mean core load of a NUMA node — the paper's "load of
// the NUMA nodes (defined as the average load of their cores)".
func (s *Sched) nodeAvgLoad(node int) int64 {
	ids := s.m.Topo.NodeCores(node)
	var sum int64
	for _, id := range ids {
		sum += s.cores[id].runnableLoad()
	}
	return sum / int64(len(ids))
}

// pullFrom detaches up to MaxMigrate threads (or imbalance load) from the
// victim core onto c, skipping the running thread, pinned threads, and
// cache-hot threads (can_migrate_task).
func (s *Sched) pullFrom(victimID int, c *sim.Core, imbalance int64) int {
	if imbalance <= 0 {
		return 0
	}
	if s.heavy == 0 {
		panic("cfs: balance pull with no core above the small-imbalance floor")
	}
	victim := s.m.Cores[victimID]
	vs := &s.cores[victimID]
	now := s.m.Now()

	// Collect candidates first: Migrate mutates the thread list. The list
	// starts on this call's stack (it spills to the heap only past the
	// default MaxMigrate) and cannot live in the scheduler instead: Migrate
	// → dispatch → IdleBalance → pullFrom re-enters while the loop below
	// still ranges over it.
	var buf [32]*sim.Thread
	cands := buf[:0]
	var candLoad int64
	for _, t := range vs.threads {
		if t == victim.Curr {
			continue
		}
		if !t.CanRunOn(c.ID) {
			continue
		}
		// task_hot: recently-run threads are cache hot and skipped.
		if t.LastCore == victim && now-t.LastRanAt < s.P.MigrationCost && t.LastRanAt > 0 {
			continue
		}
		se := s.ent(t)
		// detach_tasks: moving a task whose half-load exceeds the remaining
		// imbalance would overshoot and ping-pong; skip it.
		if se.weight/2 >= imbalance-candLoad {
			continue
		}
		cands = append(cands, t)
		candLoad += se.weight
		if len(cands) >= s.P.MaxMigrate || candLoad >= imbalance {
			break
		}
	}
	moved := 0
	for _, t := range cands {
		// Re-validate: the first migration may have dispatched this core,
		// and the nested program activity can have started or slept a
		// later candidate in the meantime.
		if t.State() != sim.StateRunnable || t.Core() != victim || t == victim.Curr {
			continue
		}
		s.m.Migrate(t, victim, c)
		moved++
	}
	if moved > 0 {
		s.m.Counters.Get("cfs.balance_migrations").Inc(uint64(moved))
	}
	return moved
}
