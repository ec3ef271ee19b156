package cfs

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// ForceFullBalance makes s run its balance passes even while no core is
// above the small-imbalance floor (Sched.fullBalance), for tests outside the
// package.
func (s *Sched) ForceFullBalance() { s.fullBalance = true }

// ShareChecked is a Sched held to the full recompute of group shares that
// the lazily computed taskGroup.share replaced: after every enqueue and
// dequeue it redistributes every group's shares across all cores the way
// updateGroupWeights did and stores them, and around every scheduler call
// that charges or compares group entities it panics unless share(core)
// equals the stored weight, group by group and core by core.
type ShareChecked struct {
	*Sched
	stored map[*taskGroup][]int64
	// checks counts the shares compared, split the groups compared while
	// they had weight on more than one core.
	checks, split *atomic.Uint64
}

// NewShareChecked wraps s, counting into the caller's totals.
func NewShareChecked(s *Sched, checks, split *atomic.Uint64) *ShareChecked {
	return &ShareChecked{Sched: s, stored: map[*taskGroup][]int64{}, checks: checks, split: split}
}

// updateGroupWeights is the recompute as it stood, storing into the
// oracle's table what it stored into each group entity's weight.
func (c *ShareChecked) updateGroupWeights(g *taskGroup) {
	w := c.stored[g]
	if w == nil {
		w = make([]int64, len(g.rqs))
		c.stored[g] = w
	}
	var total int64
	for _, rq := range g.rqs {
		total += rq.weightSum
	}
	for i, rq := range g.rqs {
		if total <= 0 {
			w[i] = 2
			continue
		}
		w[i] = max(2, g.shares*rq.weightSum/total)
	}
}

func (c *ShareChecked) check(where string) {
	for name, g := range c.groups {
		w := c.stored[g]
		if w == nil {
			continue // nothing of the group has been enqueued: its entities are not read
		}
		busy := 0
		for i, rq := range g.rqs {
			if got := g.share(i); got != w[i] {
				panic(fmt.Sprintf("cfs: %s: group %s core %d: share() = %d, full recompute stored %d", where, name, i, got, w[i]))
			}
			if rq.weightSum > 0 {
				busy++
			}
		}
		c.checks.Add(uint64(len(w)))
		if busy > 1 {
			c.split.Add(1)
		}
	}
}

func (c *ShareChecked) Enqueue(core *sim.Core, t *sim.Thread, flags int) {
	c.check("before enqueue")
	c.Sched.Enqueue(core, t, flags)
	for _, g := range c.groups {
		c.updateGroupWeights(g)
	}
	c.check("after enqueue")
}

func (c *ShareChecked) Dequeue(core *sim.Core, t *sim.Thread, flags int) {
	c.check("before dequeue") // Dequeue charges the running thread first
	c.Sched.Dequeue(core, t, flags)
	for _, g := range c.groups {
		c.updateGroupWeights(g)
	}
	c.check("after dequeue")
}

func (c *ShareChecked) PutPrev(core *sim.Core, t *sim.Thread, flags int) {
	c.check("put-prev charge")
	c.Sched.PutPrev(core, t, flags)
}

func (c *ShareChecked) Tick(core *sim.Core, curr *sim.Thread) {
	c.check("tick charge")
	c.Sched.Tick(core, curr)
}

func (c *ShareChecked) CheckPreempt(core *sim.Core, t *sim.Thread, flags int) bool {
	c.check("wakeup preemption")
	return c.Sched.CheckPreempt(core, t, flags)
}
