package cfs

import (
	"time"

	"repro/internal/pelt"
	"repro/internal/rbtree"
	"repro/internal/sim"
)

// entity is a schedulable entity: either one thread or one task group's
// presence on one core (the group's sched_entity). Ordering in the
// red-black tree is by (vruntime, id).
type entity struct {
	// Node links the entity into its owner's tree (rbtree.Item's RBNode).
	rbtree.Node

	// thread is non-nil for thread entities.
	thread *sim.Thread
	// repr is non-nil for group entities: the group this entity gives CPU
	// time to on this core.
	repr *taskGroup
	// owner is the runqueue level holding this entity.
	owner *cfsRQ
	// group caches groupFor(thread) (thread entities only; nil until the
	// first rqFor): Thread.Group never changes after spawn.
	group *taskGroup

	id       int
	vruntime int64 // virtual runtime, ns scaled by nice-0/weight
	// weight is a thread entity's load weight. A group entity has none of
	// its own: it weighs its group's share on its core (taskGroup.share).
	weight int64
	onRQ   bool // enqueued in owner (queued in tree or curr)
	inTree bool

	// avg is the PELT runnable average (thread entities only).
	avg pelt.Avg
	// loadContrib is the load currently folded into the root rq's loadAvg.
	loadContrib int64

	// accounted is how much of thread.RunTime has been charged to
	// vruntime already.
	accounted time.Duration
	// sliceStart is thread.RunTime when the entity was last picked, for
	// the tick preemption check.
	sliceStart time.Duration

	// wakeeFlips / lastWakee implement wake_wide's 1-to-many detector
	// (thread entities only).
	wakeeFlips int
	lastWakee  *entity
	flipDecay  time.Duration
}

// Less implements rbtree.Item.
func (e *entity) Less(other rbtree.Item) bool {
	o := other.(*entity)
	if e.vruntime != o.vruntime {
		return e.vruntime < o.vruntime
	}
	return e.id < o.id
}

// taskGroup is a cgroup: the unit of inter-application fairness. Each group
// owns one runqueue and one group entity per core; group entities live in
// the parent group's runqueue (here always the root, a two-level hierarchy:
// root → applications → threads, the shape systemd produces per the paper).
type taskGroup struct {
	name string
	// shares is the group's total weight, distributed across cores in
	// proportion to per-core runnable weight (calc_group_shares).
	shares int64
	// rqs/entities are per core.
	rqs      []*cfsRQ
	entities []*entity
	// totalWeight is Σ over cores of rq.weightSum, the denominator of the
	// share split; the runqueues keep it as their sums change.
	totalWeight int64
}

// share is the weight of the group's entity on core: the group's shares in
// proportion to the runnable weight it has there (calc_group_shares),
// never below 2. A pure function of the runqueue sums, so it is worked out
// where it is read — a charge, a wakeup-preemption check — and not stored.
func (g *taskGroup) share(core int) int64 {
	if g.totalWeight <= 0 {
		return 2
	}
	return max(2, g.shares*g.rqs[core].weightSum/g.totalWeight)
}

// cfsRQ is one runqueue level on one core: the root rq (holding group
// entities, or thread entities with cgroups off) or a group's per-core rq
// (holding thread entities).
type cfsRQ struct {
	core  int
	group *taskGroup // owning group; nil for the root rq

	tree        rbtree.Tree
	minVruntime int64
	// curr is the entity of this level currently running (not in tree).
	curr *entity
	// nrRunning counts entities on this level (tree + curr).
	nrRunning int
	// weightSum is Σ weights of entities on this level (tree + curr).
	weightSum int64
}

func (rq *cfsRQ) leftmost() *entity {
	it := rq.tree.Min()
	if it == nil {
		return nil
	}
	return it.(*entity)
}

func (rq *cfsRQ) enqueue(e *entity) {
	if e.inTree {
		panic("cfs: enqueue of entity already in tree")
	}
	rq.tree.Insert(e)
	e.inTree = true
	if !e.onRQ {
		e.onRQ = true
		rq.nrRunning++
		rq.addWeight(e.weight)
	}
}

// addWeight moves the level's weight sum, and with it the owning group's
// total.
func (rq *cfsRQ) addWeight(w int64) {
	rq.weightSum += w
	if rq.group != nil {
		rq.group.totalWeight += w
	}
}

func (rq *cfsRQ) dequeue(e *entity) {
	if e.inTree {
		rq.tree.Delete(e)
		e.inTree = false
	}
	if e.onRQ {
		e.onRQ = false
		rq.nrRunning--
		rq.addWeight(-e.weight)
	}
	if rq.curr == e {
		rq.curr = nil
	}
}

// setCurr marks e as the running entity at this level, removing it from
// the tree (set_next_entity).
func (rq *cfsRQ) setCurr(e *entity) {
	if e.inTree {
		rq.tree.Delete(e)
		e.inTree = false
	}
	rq.curr = e
}

// putCurr returns the running entity to the tree (put_prev_entity).
func (rq *cfsRQ) putCurr() {
	e := rq.curr
	if e == nil {
		return
	}
	rq.curr = nil
	if e.onRQ {
		rq.tree.Insert(e)
		e.inTree = true
	}
}

// updateMinVruntime advances min_vruntime monotonically towards the
// smallest runnable vruntime (update_min_vruntime).
func (rq *cfsRQ) updateMinVruntime() {
	min := rq.minVruntime
	cand := int64(-1 << 62)
	has := false
	if rq.curr != nil && rq.curr.onRQ {
		cand = rq.curr.vruntime
		has = true
	}
	if lm := rq.leftmost(); lm != nil {
		if !has || lm.vruntime < cand {
			cand = lm.vruntime
		}
		has = true
	}
	if has && cand > min {
		min = cand
	}
	rq.minVruntime = min
}

// vdelta is real time delta as virtual time at the given weight
// (update_curr's weighting: delta × nice0 / weight).
func vdelta(delta time.Duration, weight int64) int64 {
	return int64(delta) * nice0Weight / weight
}
