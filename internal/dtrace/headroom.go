package dtrace

// The oracle headroom analyzer: how much of the wakeup queueing a
// scheduler inflicted could a clairvoyant placer have avoided?
//
// Model. Each wake record carries the placement alternatives the
// scheduler had — the cores the thread was allowed on, each with its
// runnable depth at decision time — and the core actually chosen. The
// modeled cost of placing a wake on core c is c's corrected depth: the
// recorded depth, minus earlier in-window actual placements on c (they
// are part of the recorded depth but would not exist under the
// alternative), plus earlier in-window hypothetical placements (they
// would). Costs are summed per window; "achieved" is the schedule the
// scheduler produced, "attainable" the exhaustive minimum over
// alternative assignments.
//
// Search bounds. Windows are Options.Window consecutive wake decisions
// (≤ MaxWindow); within a window the search branches over the
// Options.Branch cheapest candidates per decision (≤ MaxBranch, ties cut
// by core id), depth-first, cutting a node when its partial cost plus a
// lower bound on the decisions still open cannot beat the incumbent.
// Worst case is branch^window nodes per window — at the defaults (8, 4),
// 65536 — and the bound prunes most of it; a window that queued nothing
// is not searched at all. The restriction to per-decision cheapest
// candidates makes the result a lower bound on the true oracle's
// improvement: headroom_pct is conservative.
//
// headroom_pct = 100 × (achieved − attainable) / achieved. 0 means the
// scheduler's placements were queue-optimal under this model; larger
// values mean a better placer had that fraction of modeled queueing to
// reclaim. Everything is integer arithmetic over the recorded trace, so
// the result is deterministic and identical whether computed online by
// the Recorder or offline from a decoded trace (ComputeHeadroom).

// Headroom is the analyzer's verdict over a run's wake decisions.
type Headroom struct {
	// Wakes counts the wake decisions analyzed.
	Wakes int `json:"wakes"`
	// Achieved is the summed modeled queue depth of the scheduler's
	// actual placements.
	Achieved int64 `json:"achieved"`
	// Attainable is the summed depth of the best placements the
	// windowed exhaustive search found.
	Attainable int64 `json:"attainable"`
	// Pct is 100 × (Achieved − Attainable) / Achieved, 0 when no
	// queueing was observed.
	Pct float64 `json:"pct"`
}

// headroomAcc accumulates windows online. All storage is fixed-size, so
// neither buffering a decision nor searching a window allocates.
type headroomAcc struct {
	window int
	branch int

	// The buffered window: per decision the chosen core and the allowed
	// cores with their recorded depths. solveWindow rewrites each Key in
	// place to the decision's base cost on that core.
	n      int
	chosen [MaxWindow]int32
	ncand  [MaxWindow]int
	cands  [MaxWindow][maxCandPerRec]Candidate
	winAch int64 // the buffered decisions' achieved cost

	// Search state.
	assign [MaxWindow]int32     // current partial assignment
	hyp    [hypCores]uint8      // assign[:i] counted per core (ids below hypCores)
	suffix [MaxWindow + 1]int64 // cheapest conceivable cost of decisions i..n-1
	best   int64
	nodes  uint64 // search nodes visited, all windows

	wakes   int
	ach     int64
	att     int64
	settled bool
}

// hypCores is how many cores, by id from 0, have a hypothetical-placement
// counter; placements on any other id are counted from the assignment.
const hypCores = maxCandPerRec

// next returns the slot for one more decision, first scoring the window
// if it is full — deferred to here so the slice the previous observe
// returned stays intact until its caller has copied it.
func (a *headroomAcc) next() int {
	if a.n == a.window {
		a.solveWindow()
	}
	a.n++
	return a.n - 1
}

// observe buffers one wake decision and returns its candidates (valid
// until the next observe); loads is the per-core runnable depth vector at
// decision time (indexed by core id). Only cores the thread may run on
// become candidates.
func (a *headroomAcc) observe(chosen int32, t canRunner, loads []int) []Candidate {
	i := a.next()
	cs := a.cands[i][:0]
	for id, load := range loads {
		if !t.CanRunOn(id) || len(cs) == maxCandPerRec {
			continue
		}
		cs = append(cs, Candidate{ID: int32(id), Key: int64(load)})
	}
	a.buffered(i, chosen, cs)
	return cs
}

// observeCands is observe for replay from a decoded trace, where the
// allowed-core set and depths come straight from the record (cut to the
// recorder's own maxCandPerRec). A core listed twice is priced at its
// first depth both times.
func (a *headroomAcc) observeCands(chosen int32, cands []Candidate) {
	i := a.next()
	cs := a.cands[i][:copy(a.cands[i][:], cands)]
	for k := range cs {
		for _, p := range cs[:k] {
			if p.ID == cs[k].ID {
				cs[k].Key = p.Key
				break
			}
		}
	}
	a.buffered(i, chosen, cs)
}

// buffered completes decision i, adding the chosen core's depth to the
// window's achieved cost. The prior-placement corrections cancel for the
// actual assignment, so that cost is simply the recorded depth of each
// chosen core (0 when it raced offline and is missing from the record).
func (a *headroomAcc) buffered(i int, chosen int32, cs []Candidate) {
	a.chosen[i], a.ncand[i] = chosen, len(cs)
	for _, c := range cs {
		if c.ID == chosen {
			a.winAch += max(c.Key, 0)
			break
		}
	}
}

// canRunner is the slice of sim.Thread the accumulator needs.
type canRunner interface{ CanRunOn(id int) bool }

// solveWindow scores the buffered window and resets it.
func (a *headroomAcc) solveWindow() {
	n, achieved := a.n, a.winAch
	a.best = achieved // the actual schedule is always attainable
	if achieved > 0 {
		// Base costs: decision i's recorded depth on a core, floored at 0,
		// minus the earlier in-window actual placements there (part of the
		// recorded depth, absent under an alternative schedule).
		// Hypothetical placements only ever add to a base, so the cheapest
		// floored base of each remaining decision bounds any completion
		// from below.
		a.suffix[n] = 0
		for i := n - 1; i >= 0; i-- {
			var low int64
			for k := range a.cands[i][:a.ncand[i]] {
				c := &a.cands[i][k]
				c.Key = max(c.Key, 0)
				for _, ch := range a.chosen[:i] {
					if ch == c.ID {
						c.Key--
					}
				}
				if f := max(c.Key, 0); k == 0 || f < low {
					low = f
				}
			}
			a.suffix[i] = a.suffix[i+1] + low
		}
		a.search(0, 0)
	}
	a.n, a.winAch = 0, 0
	a.wakes += n
	a.ach += achieved
	a.att += a.best
}

// search branches decision i over its cheapest candidates, bounding on
// the partial cost plus the remaining decisions' suffix bound.
func (a *headroomAcc) search(i int, cost int64) {
	a.nodes++
	if cost+a.suffix[i] >= a.best {
		return
	}
	if i == a.n {
		a.best = cost
		return
	}
	if a.ncand[i] == 0 {
		// No recorded alternatives (candidate column truncated): keep the
		// actual placement, whose recorded depth is unknown, at no charge.
		a.place(i, a.chosen[i], cost)
		return
	}
	// Select the branch cheapest by (cost, core id) into top, in order.
	var top [MaxBranch]Candidate
	w := 0
	for _, c := range a.cands[i][:a.ncand[i]] {
		c.Key = max(c.Key+a.placed(i, c.ID), 0)
		k := w
		if w < a.branch {
			w++
		} else if k--; !candLess(c, top[k]) {
			continue
		}
		for ; k > 0 && candLess(c, top[k-1]); k-- {
			top[k] = top[k-1]
		}
		top[k] = c
	}
	for _, c := range top[:w] {
		if cost+c.Key+a.suffix[i+1] >= a.best {
			break // and so would every costlier sibling
		}
		a.place(i, c.ID, cost+c.Key)
	}
}

// place assigns decision i to core hypothetically and searches on.
func (a *headroomAcc) place(i int, core int32, cost int64) {
	a.assign[i] = core
	if uint32(core) < hypCores {
		a.hyp[core]++
	}
	a.search(i+1, cost)
	if uint32(core) < hypCores {
		a.hyp[core]--
	}
}

// placed counts the hypothetical placements on core among assign[:i].
func (a *headroomAcc) placed(i int, core int32) (n int64) {
	if uint32(core) < hypCores {
		return int64(a.hyp[core])
	}
	for _, h := range a.assign[:i] {
		if h == core {
			n++
		}
	}
	return n
}

// candLess is the branch cut's canonical order: (key, id).
func candLess(x, y Candidate) bool {
	return x.Key < y.Key || x.Key == y.Key && x.ID < y.ID
}

// finish scores a final partial window.
func (a *headroomAcc) finish() {
	if a.settled {
		return
	}
	a.settled = true
	a.solveWindow()
}

// result renders the accumulated verdict.
func (a *headroomAcc) result() Headroom {
	h := Headroom{Wakes: a.wakes, Achieved: a.ach, Attainable: a.att}
	if a.ach > 0 {
		h.Pct = 100 * float64(a.ach-a.att) / float64(a.ach)
	}
	return h
}

// ComputeHeadroom replays the analyzer over a decoded trace's wake
// records. With the cand column group recorded and no dropped chunks it
// reproduces the online Recorder.Headroom exactly; without candidates it
// sees no alternatives and reports zero headroom. A window of 0 takes the
// trace header's; a window outside [1, MaxWindow] or a branch below 1
// takes the default, and a branch above MaxBranch is cut to it.
func ComputeHeadroom(tr *Trace, window, branch int) Headroom {
	if window == 0 {
		window = tr.Header.Window
	}
	if window < 1 || window > MaxWindow {
		window = defaultWindow
	}
	if branch < 1 {
		branch = defaultBranch
	}
	if branch > MaxBranch {
		branch = MaxBranch
	}
	acc := headroomAcc{window: window, branch: branch}
	acc.replay(tr)
	return acc.result()
}

// replay feeds the trace's wake records through the accumulator and
// settles it.
func (a *headroomAcc) replay(tr *Trace) {
	for i := range tr.Recs {
		if r := &tr.Recs[i]; r.Kind == KindWake {
			a.observeCands(r.Core, r.Cand)
		}
	}
	a.finish()
}
