package dtrace

import (
	"math"
	"math/bits"
)

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
// lower bound on the decisions still open cannot beat the incumbent, or
// when the same state — the decision index and how many placements each
// core has taken, whatever their order — was already expanded at no
// greater cost. A window that queued nothing is not searched at all. The
// restriction to per-decision cheapest candidates makes the result a lower
// bound on the true oracle's improvement: headroom_pct is conservative.
//
// Worst case is branch^window nodes per window. At the defaults (8, 4)
// that is 65536 and the search visits about 40 on a saturated eight-core
// box; cost climbs steeply with both values, and past a window of 12 the
// state table is too small to hold what a window revisits. The 12-second
// web-tail mix at scale 0.25 (11 420 wakes, two trials) runs in 0.07 s at
// (8, 4), 0.08 s at (12, 4), 0.3 s at (16, 4) and 3 min 24 s at (16, 8),
// the largest pair accepted. There is no node budget: pair large windows with
// a per-trial timeout (schedbattle -trial-timeout).
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

// headroomAcc accumulates windows online. Its storage is sized once, by
// newHeadroomAcc, so neither buffering a decision nor searching a window
// allocates.
type headroomAcc struct {
	window int
	branch int

	// The buffered window: per decision the chosen core and the allowed
	// cores with their recorded depths, decision i's in the arena row
	// cands[i*width:], of which set returns the filled part. solveWindow
	// rewrites each Key in place to the decision's base cost on that core.
	n      int
	width  int // candidates a decision keeps at most
	chosen [MaxWindow]int32
	ncand  [MaxWindow]int
	cands  []Candidate // window × width entries
	winAch int64       // the buffered decisions' achieved cost

	// Search state.
	assign [MaxWindow]int32     // current partial assignment
	hyp    [hypCores]uint8      // assign[:i] counted per core (ids below hypCores)
	suffix [MaxWindow + 1]int64 // cheapest conceivable cost of decisions i..n-1
	best   int64
	nodes  uint64 // search nodes visited, all windows

	// The window's state key, when it fits (keyed): every core a decision
	// can be placed on has a slot, and key packs assign[:i]'s placements
	// per slot, four bits each. What the search finds below a node depends
	// on that node's key alone; the nibbles of a key sum to i, so no two
	// depths share one and only the root's is zero. A window that places
	// on a core id at or past hypCores, or on more than keySlots cores, is
	// not keyed and is searched on the suffix bound alone.
	keyed bool
	slot  [hypCores]uint8 // core id → its slot + 1, 0 while it has none
	cores [keySlots]int32 // slot → core id
	ncore int
	key   stateKey
	open  [MaxWindow + 1]int8            // decisions i..n-1 that have candidates
	has   [MaxWindow + 1]uint32          // slots that are a candidate of one of them
	floor [MaxWindow + 1][keySlots]int64 // and their lowest base cost there
	start [keySlots]int64                // fill's scratch
	epoch uint64                         // serial of the window being searched
	table [tableSize]tableEntry
	// shrink halves the table this many times; tests set it to make
	// entries collide.
	shrink uint8

	wakes   int
	ach     int64
	att     int64
	settled bool
}

// hypCores is how many cores, by id from 0, have a hypothetical-placement
// counter; placements on any other id are counted from the assignment.
const hypCores = maxCandPerRec

// The state table: a direct-mapped cache of the states the search has
// expanded in the current window, each with the cheapest partial cost it
// was reached at. 256 entries of 32 bytes (8 KiB); a colliding state
// overwrites, and an entry only ever cuts on a full key match.
const (
	keySlots  = 32 // cores a keyed window may place on: 2 words × 16 nibbles
	tableBits = 8
	tableSize = 1 << tableBits
)

type stateKey [keySlots / 16]uint64

type tableEntry struct {
	key   stateKey
	cost  int64
	epoch uint64
}

// newHeadroomAcc returns an accumulator for windows of window decisions
// searched branch ways. arena backs the window's candidate sets,
// len(arena)/window entries per decision: a decision keeps at most that
// many candidates.
func newHeadroomAcc(window, branch int, arena []Candidate) headroomAcc {
	return headroomAcc{window: window, branch: branch, width: len(arena) / window, cands: arena}
}

// row returns decision i's arena row, all width entries of it.
func (a *headroomAcc) row(i int) []Candidate {
	return a.cands[i*a.width : (i+1)*a.width]
}

// set returns decision i's buffered candidates.
func (a *headroomAcc) set(i int) []Candidate {
	return a.cands[i*a.width : i*a.width+a.ncand[i]]
}

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
	cs := a.row(i)[:0]
	for id, load := range loads {
		if !t.CanRunOn(id) || len(cs) == a.width {
			continue
		}
		cs = append(cs, Candidate{ID: int32(id), Key: int64(load)})
	}
	a.buffered(i, chosen, cs)
	return cs
}

// observeCands is observe for replay from a decoded trace, where the
// allowed-core set and depths come straight from the record (cut to the
// row's width). A core listed twice is priced at its first depth both
// times.
func (a *headroomAcc) observeCands(chosen int32, cands []Candidate) {
	i := a.next()
	cs := a.row(i)
	cs = cs[:copy(cs, cands)]
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
		a.price()
		a.epoch++
		a.search(0, 0)
		for _, c := range a.cores[:a.ncore] {
			a.slot[c] = 0
		}
	}
	a.n, a.winAch = 0, 0
	a.wakes += n
	a.ach += achieved
	a.att += a.best
}

// price turns the window's recorded depths into base costs and derives
// the bounds the search cuts with.
func (a *headroomAcc) price() {
	// Base costs: decision i's recorded depth on a core, floored at 0,
	// minus the earlier in-window actual placements there (part of the
	// recorded depth, absent under an alternative schedule) — counted the
	// way the search counts hypothetical ones, on the actual schedule.
	n := a.n
	for i, ch := range a.chosen[:n] {
		cs := a.set(i)
		for k := range cs {
			cs[k].Key = max(cs[k].Key, 0) - a.placed(i, cs[k].ID)
		}
		a.assign[i] = ch
		if uint32(ch) < hypCores {
			a.hyp[ch]++
		}
	}
	for _, ch := range a.chosen[:n] {
		if uint32(ch) < hypCores {
			a.hyp[ch] = 0
		}
	}
	// Hypothetical placements only ever add to a base, so the cheapest
	// floored base of each remaining decision bounds any completion from
	// below (suffix); fill sharpens that from the per-core floors.
	a.suffix[n], a.open[n], a.has[n] = 0, 0, 0
	a.keyed, a.ncore = true, 0
	for i := n - 1; i >= 0; i-- {
		a.open[i], a.has[i] = a.open[i+1], a.has[i+1]
		copy(a.floor[i][:a.ncore], a.floor[i+1][:a.ncore])
		if a.ncand[i] == 0 {
			a.slotOf(a.chosen[i]) // placed on, though never priced
		} else {
			a.open[i]++
		}
		var low int64
		for k, c := range a.set(i) {
			if f := max(c.Key, 0); k == 0 || f < low {
				low = f
			}
			if s := a.slotOf(c.ID); s < 0 {
				continue
			} else if bit := uint32(1) << s; a.has[i]&bit == 0 {
				a.has[i] |= bit
				a.floor[i][s] = c.Key
			} else {
				a.floor[i][s] = min(a.floor[i][s], c.Key)
			}
		}
		a.suffix[i] = a.suffix[i+1] + low
	}
}

// slotOf returns core's slot in the window's state key, giving it the
// next free one on first sight; -1, and the window is no longer keyed,
// when the id has no slot entry or the slots have run out.
func (a *headroomAcc) slotOf(core int32) int {
	if uint32(core) < hypCores {
		if s := a.slot[core]; s != 0 {
			return int(s) - 1
		}
		if a.ncore < keySlots {
			a.cores[a.ncore] = core
			a.ncore++
			a.slot[core] = uint8(a.ncore)
			return a.ncore - 1
		}
	}
	a.keyed = false
	return -1
}

// search branches decision i over its cheapest candidates. A node is cut
// when its partial cost plus a lower bound on the decisions still open —
// suffix, then fill — cannot beat the incumbent, or when its state was
// already expanded at no greater cost.
func (a *headroomAcc) search(i int, cost int64) {
	a.nodes++
	if cost+a.suffix[i] >= a.best {
		return
	}
	if i == a.n {
		a.best = cost
		return
	}
	if a.keyed && (i > 0 && a.seen(cost) || cost+a.fill(i) >= a.best) {
		return
	}
	if a.ncand[i] == 0 {
		// No recorded alternatives (candidate column truncated): keep the
		// actual placement, whose recorded depth is unknown, at no charge.
		a.place(i, a.chosen[i], cost)
		return
	}
	// Select the branch cheapest by (cost, core id) into top, in order —
	// of those that leave room under the incumbent: the rest sort behind
	// them and would only be skipped below.
	var top [MaxBranch]Candidate
	w := 0
	room := a.best - cost - a.suffix[i+1]
	for _, c := range a.set(i) {
		if c.Key = max(c.Key+a.placed(i, c.ID), 0); c.Key >= room {
			continue
		}
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
	if a.keyed {
		// Of equally cheap children, first the core that stays dearest: the
		// one later decisions want least, so the first dives land nearer
		// the optimum. The minimum is the same in any order.
		for x := 1; x < w; x++ {
			for y := x; y > 0 && top[y].Key == top[y-1].Key && a.later(i, top[y].ID) > a.later(i, top[y-1].ID); y-- {
				top[y], top[y-1] = top[y-1], top[y]
			}
		}
	}
	for _, c := range top[:w] {
		if cost+c.Key+a.suffix[i+1] >= a.best {
			break // and so would every costlier sibling
		}
		a.place(i, c.ID, cost+c.Key)
	}
}

// later is the lowest base cost core has among the decisions after i, or
// more than any base if none of them may use it. Keyed windows only.
func (a *headroomAcc) later(i int, core int32) int64 {
	s := a.slot[core] - 1
	if a.has[i+1]>>s&1 == 0 {
		return math.MaxInt64
	}
	return a.floor[i+1][s]
}

// seen reports whether the current state was already expanded at no
// greater partial cost, recording this visit if not. What lies below a
// state depends on its key alone, so a twin reached at cost ≤ this one has
// already brought best down to anything this visit could find.
func (a *headroomAcc) seen(cost int64) bool {
	h := (a.key[0]*0x9E3779B97F4A7C15 + a.key[1]*0xC2B2AE3D27D4EB4F) >> (64 - tableBits + a.shrink)
	e := &a.table[h]
	if e.epoch == a.epoch && e.key == a.key && e.cost <= cost {
		return true
	}
	e.key, e.cost, e.epoch = a.key, cost, a.epoch
	return false
}

// fill bounds from below what the open decisions i..n-1 add to the cost,
// counting the collisions the suffix bound is blind to. The m-th of them
// placed on a core pays at least the core's lowest open base, plus the
// placements already there, plus m; the decisions that have candidates
// take distinct such slots, so they pay at least the cheapest open[i] of
// all slots — filled here level by level.
func (a *headroomAcc) fill(i int) (sum int64) {
	start := &a.start
	w := 0
	for m := a.has[i]; m != 0; m &= m - 1 {
		s := bits.TrailingZeros32(m)
		start[w] = a.floor[i][s] + int64(a.key[s>>4]>>((s&15)*4)&15)
		w++
	}
	if w == 0 {
		return 0 // no decision below has candidates
	}
	level := start[0]
	for _, v := range start[1:w] {
		level = min(level, v)
	}
	for r := int64(a.open[i]); r > 0; level++ {
		var at int64
		for _, v := range start[:w] {
			if v <= level {
				at++
			}
		}
		at = min(at, r)
		sum += at * max(level, 0)
		r -= at
	}
	return sum
}

// place assigns decision i to core hypothetically and searches on. (The
// last decision of a 16-wide window can carry a nibble of the key over;
// no leaf reads its key, and the subtraction undoes it.)
func (a *headroomAcc) place(i int, core int32, cost int64) {
	a.assign[i] = core
	var word int
	var one uint64
	if uint32(core) < hypCores {
		a.hyp[core]++
		if s := int(a.slot[core]) - 1; s >= 0 {
			word, one = s>>4, 1<<((s&15)*4)
		}
	}
	a.key[word] += one
	a.search(i+1, cost)
	a.key[word] -= one
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
// records. With the cand columns present and no dropped chunks it
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
	// A recorded wake keeps at most maxCandPerRec candidates, whatever the
	// machine. The arena stays on the stack, so a replay allocates nothing.
	var arena [MaxWindow * maxCandPerRec]Candidate
	acc := newHeadroomAcc(window, branch, arena[:window*maxCandPerRec])
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
