package ule

import "time"

// interactHalf is the scaling factor m = 50 of the paper's penalty formula.
const interactHalf = 50

// interactScore is FreeBSD's sched_interact_score: 0..49 for threads that
// sleep more than they run, 50..100 for the opposite. (The paper's formula
// box renders the r ≥ s branch ambiguously; this is the shipped code: for
// r > s the score is 2m − m·s/r, rising to 100 as sleep time vanishes —
// which is exactly the "penalty of fibo quickly rises to the maximum value"
// behaviour of Figure 2. TestInteractScoreFormula names this reading.)
func interactScore(runtime, slptime time.Duration) int {
	switch {
	case runtime > slptime:
		div := runtime / interactHalf
		if div < 1 {
			div = 1
		}
		penalty := slptime / div
		if penalty > interactHalf {
			penalty = interactHalf
		}
		return interactHalf + (interactHalf - int(penalty))
	case slptime > runtime:
		div := slptime / interactHalf
		if div < 1 {
			div = 1
		}
		return int(runtime / div)
	default:
		if runtime > 0 {
			return interactHalf
		}
		return 0
	}
}

// interactUpdate clips the (runtime, sleeptime) history to the SlpRunMax
// window (sched_interact_update): large overshoots snap to the cap, medium
// ones halve, and the steady state decays by 4/5 — geometric forgetting
// that keeps roughly the last 5 seconds.
func (p Params) interactUpdate(runtime, slptime *time.Duration) {
	sum := *runtime + *slptime
	if sum < p.SlpRunMax {
		return
	}
	if sum > p.SlpRunMax*2 {
		if *runtime > *slptime {
			*runtime = p.SlpRunMax
			*slptime = 1
		} else {
			*slptime = p.SlpRunMax
			*runtime = 1
		}
		return
	}
	if sum > p.SlpRunMax/5*6 {
		*runtime /= 2
		*slptime /= 2
		return
	}
	*runtime = *runtime / 5 * 4
	*slptime = *slptime / 5 * 4
}

// interactFork compresses the history a child inherits
// (sched_interact_fork), bounding it to SlpRunForkMax while preserving the
// ratio — the mechanism that lets sysbench's later-forked workers inherit
// the master's by-then-batch classification (Figures 3/4).
func (p Params) interactFork(runtime, slptime *time.Duration) {
	sum := *runtime + *slptime
	if sum > p.SlpRunForkMax {
		ratio := int64(sum / p.SlpRunForkMax)
		if ratio < 1 {
			ratio = 1
		}
		*runtime /= time.Duration(ratio)
		*slptime /= time.Duration(ratio)
	}
}

// priority maps a thread's score and history to a queue priority
// (sched_priority): interactive scores spread linearly over the
// interactive band; batch priority grows with recent runtime plus
// niceness.
func (p Params) priority(score int, runtime time.Duration, nice int) (pri int, interactive bool) {
	if score <= p.InteractThresh {
		span := PriMaxInteract - PriMinInteract
		pri = PriMinInteract + score*span/p.InteractThresh
		return pri, true
	}
	// Batch: scale runtime over the history window into the batch band —
	// "the more a thread runs, the lower its priority", with niceness as a
	// linear offset.
	span := int64(PriMaxBatch - PriMinBatch)
	r := int64(runtime)
	w := int64(p.SlpRunMax)
	rel := int(r * span / w)
	if rel > int(span) {
		rel = int(span)
	}
	pri = PriMinBatch + rel + nice
	if pri < PriMinBatch {
		pri = PriMinBatch
	}
	if pri > PriMaxBatch {
		pri = PriMaxBatch
	}
	return pri, false
}
