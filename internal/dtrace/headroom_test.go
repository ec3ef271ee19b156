package dtrace

// The oracle search's reference: the search as first written — a
// sort.Slice and a full corrected-depth rescan at every node, bounded on
// the partial cost alone — so the differential and fuzz tests below can
// hold the production search to the same Headroom integers.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

type refDecision struct {
	chosen int32
	cands  []Candidate
}

type refAcc struct {
	window, branch int
	buf            []refDecision
	assign         []int32
	achOne         []int64
	wakes          int
	ach, att       int64
}

func refDepthOf(cands []Candidate, core int32) int64 {
	for _, c := range cands {
		if c.ID == core {
			return c.Key
		}
	}
	return -1
}

// corrected: recorded depth, minus earlier in-window actual placements on
// core, plus earlier hypothetical ones (assign[:i]), floored at 0.
func (a *refAcc) corrected(i int, core int32) int64 {
	depth := refDepthOf(a.buf[i].cands, core)
	if depth < 0 {
		depth = 0
	}
	for j := 0; j < i; j++ {
		if a.buf[j].chosen == core {
			depth--
		}
		if a.assign[j] == core {
			depth++
		}
	}
	if depth < 0 {
		depth = 0
	}
	return depth
}

func refSortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Key != cs[j].Key {
			return cs[i].Key < cs[j].Key
		}
		return cs[i].ID < cs[j].ID
	})
}

func (a *refAcc) solveWindow() {
	n := len(a.buf)
	if n == 0 {
		return
	}
	a.assign = make([]int32, n)
	a.achOne = make([]int64, n)
	var achieved int64
	for i, d := range a.buf {
		c := refDepthOf(d.cands, d.chosen)
		if c < 0 {
			c = 0
		}
		a.achOne[i] = c
		achieved += c
	}
	best := achieved
	a.search(0, n, 0, &best)
	a.wakes += n
	a.ach += achieved
	a.att += best
	a.buf = a.buf[:0]
}

func (a *refAcc) search(i, n int, cost int64, best *int64) {
	if cost >= *best {
		return
	}
	if i == n {
		*best = cost
		return
	}
	d := &a.buf[i]
	ranked := make([]Candidate, 0, len(d.cands))
	for _, c := range d.cands {
		ranked = append(ranked, Candidate{ID: c.ID, Key: a.corrected(i, c.ID)})
	}
	refSortCandidates(ranked)
	if len(ranked) > a.branch {
		ranked = ranked[:a.branch]
	}
	if len(ranked) == 0 {
		a.assign[i] = d.chosen
		a.search(i+1, n, cost+a.achOne[i], best)
		return
	}
	for _, c := range ranked {
		a.assign[i] = c.ID
		a.search(i+1, n, cost+c.Key, best)
	}
}

// refHeadroom is ComputeHeadroom on the reference search, for an
// in-range window and branch.
func refHeadroom(tr *Trace, window, branch int) Headroom {
	a := refAcc{window: window, branch: branch}
	for _, r := range tr.Recs {
		if r.Kind != KindWake {
			continue
		}
		a.buf = append(a.buf, refDecision{chosen: r.Core, cands: r.Cand})
		if len(a.buf) == window {
			a.solveWindow()
		}
	}
	a.solveWindow()
	return Headroom{Wakes: a.wakes, Achieved: a.ach, Attainable: a.att}
}

// headroomCase turns bytes into a search problem: window, branch, then
// wake records of a chosen core and (core, depth) candidates. Small
// moduli keep depths tied and cores colliding — contention is the
// interesting case — while the id stride reaches core 255 and, past it,
// ids without a placement counter or a key slot. One case in four is a
// machine of 30 to 37 cores, around the keySlots a state key holds.
// Candidate sets may be empty, repeat a core, or omit the chosen one. The
// branch is cut until the tree has no more leaves than the defaults' 4^8:
// tied windows make the reference visit most of them, and at 8^16 that is
// not a test.
func headroomCase(data []byte) (tr *Trace, window, branch int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	window = 1 + next()%MaxWindow
	branch = 1 + next()%MaxBranch
	for math.Pow(float64(branch), float64(window)) > 1<<16 {
		branch--
	}
	stride := []int32{1, 17, 85, 300}[next()%4]
	nCores := next()
	if nCores < 192 {
		nCores = 1 + nCores%4
	} else {
		nCores = keySlots - 2 + nCores%8
		stride = 1
	}
	tr = &Trace{}
	for len(data) > 0 && len(tr.Recs) < 3*MaxWindow {
		rec := Rec{Kind: KindWake, Core: int32(next()%(nCores+1)) * stride}
		for n := next() % (nCores + 2); n > 0; n-- {
			rec.Cand = append(rec.Cand, Candidate{ID: int32(next()%nCores) * stride, Key: int64(next()%5) - 1})
		}
		tr.Recs = append(tr.Recs, rec)
	}
	return tr, window, branch
}

// checkAgainstReference holds the search to the reference on one case,
// three times: as ComputeHeadroom runs it, and with the state table cut to
// four entries and to one, where states collide and overwrite each other
// all the time. It returns the nodes each of the three visited and whether
// the last window searched was keyed.
func checkAgainstReference(t *testing.T, data []byte) (nodes [3]uint64, keyed bool) {
	t.Helper()
	tr, window, branch := headroomCase(data)
	want := refHeadroom(tr, window, branch)
	got := ComputeHeadroom(tr, window, branch)
	got.Pct = 0
	if got != want {
		t.Fatalf("window %d branch %d over %d wakes: search %+v, reference %+v\ninput %x", window, branch, len(tr.Recs), got, want, data)
	}
	for k, shrink := range []uint8{0, tableBits - 2, tableBits} {
		acc := newTestAcc(window, branch)
		acc.shrink = shrink
		acc.replay(tr)
		if got := acc.result(); got.Wakes != want.Wakes || got.Achieved != want.Achieved || got.Attainable != want.Attainable {
			t.Fatalf("window %d branch %d, table of %d: search %+v, reference %+v\ninput %x", window, branch, tableSize>>shrink, got, want, data)
		}
		nodes[k], keyed = acc.nodes, acc.keyed
	}
	return nodes, keyed
}

// headroomSeeds are the differential test's named shapes, also the fuzz
// corpus: bytes as headroomCase reads them.
var headroomSeeds = [][]byte{
	{},
	{7, 3, 0, 1, 0, 0},                   // a wake with no candidates
	{7, 3, 0, 1, 1, 1, 0, 3, 1, 1, 0, 4}, // the chosen core absent from its record
	{3, 1, 0, 1, 0, 2, 0, 4, 1, 1, 0, 2, 0, 4, 1, 1},                          // two wakes crammed onto the loaded core of two
	{7, 3, 2, 3, 3, 4, 0, 2, 1, 2, 2, 2, 3, 2, 3, 0, 0, 0},                    // tied depths, core ids to 255
	{15, 7, 3, 3, 1, 5, 0, 4, 0, 3, 1, 2, 1, 1, 2, 0, 1, 3, 0, 4, 1, 4, 2, 4}, // cores listed twice, ids past the counters
	// A wake with no candidates behind two tied ones: a fill bound that
	// counted it as a third paying decision would cut the root.
	{2, 3, 0, 1, 0, 2, 0, 2, 1, 2, 0, 2, 0, 3, 1, 2, 0, 0},
	{2, 3, 0, 1, 0, 2, 0, 2, 1, 2, 0, 2, 0, 4, 1, 2, 2, 1, 0, 3}, // the last wake's chosen core absent from its record instead
	// Sixteen tied wakes on two cores: states recur by the thousand, and a
	// path that puts all sixteen on one core carries its key nibble over.
	{15, 1, 0, 1,
		0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3,
		0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3,
		0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3,
		0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 0, 3, 1, 3},
	{15, 1, 3, 1, 0, 2, 0, 3, 1, 3, 1, 2, 0, 3, 1, 2, 0, 2, 0, 2, 1, 3}, // window 16 on ids 0 and 300: no key slot, the suffix-bound search
	wideSeed(),
}

// wideSeed is one window of two wakes on a 37-core machine, 36 cores
// allowed each: more cores than a state key has slots.
func wideSeed() []byte {
	data := []byte{1, 3, 0, 199}
	for rec := 0; rec < 2; rec++ {
		data = append(data, 0, 36, 0, 4) // chosen: core 0, the deepest
		for c := byte(1); c < 36; c++ {
			data = append(data, c, 3)
		}
	}
	return data
}

func TestHeadroomMatchesReference(t *testing.T) {
	for _, seed := range headroomSeeds {
		checkAgainstReference(t, seed)
	}
	rng := rand.New(rand.NewSource(13))
	var contended, keyed, unkeyed int
	var nodes [3]uint64
	for i := 0; i < 3000; i++ {
		data := make([]byte, 4+rng.Intn(200))
		rng.Read(data)
		n, k := checkAgainstReference(t, data)
		for j := range nodes {
			nodes[j] += n[j]
		}
		if k {
			keyed++
		} else {
			unkeyed++
		}
		tr, w, b := headroomCase(data)
		if hr := ComputeHeadroom(tr, w, b); hr.Attainable < hr.Achieved {
			contended++
		}
	}
	if contended < 300 {
		t.Fatalf("only %d of 3000 random cases had headroom to find; the generator no longer exercises the search", contended)
	}
	// Both searches ran: windows with a state key and windows without.
	// And the table cut nodes: the fewer entries, the more states are
	// overwritten before their twin arrives, so the more nodes.
	if keyed < 300 || unkeyed < 300 {
		t.Fatalf("%d cases ended on a keyed window, %d on one without a key: the generator no longer reaches both searches", keyed, unkeyed)
	}
	if !(nodes[0] < nodes[1] && nodes[1] < nodes[2]) {
		t.Fatalf("nodes visited with %d, 4 and 1 table entries: %d, %d, %d, want ascending", tableSize, nodes[0], nodes[1], nodes[2])
	}
}

// TestHeadroomKeyFit: which windows get a state key. One that places on a
// core id past the slot index, or on more than keySlots cores, takes the
// suffix-bound search instead and must come to the same integers.
func TestHeadroomKeyFit(t *testing.T) {
	// tied builds two windows of four wakes over cores of the given ids,
	// every core two deep and the scheduler stacking onto the first.
	tied := func(ids ...int32) *Trace {
		tr := &Trace{}
		for w := 0; w < 8; w++ {
			rec := Rec{Kind: KindWake, Core: ids[0]}
			for _, id := range ids {
				rec.Cand = append(rec.Cand, Candidate{ID: id, Key: 2})
			}
			tr.Recs = append(tr.Recs, rec)
		}
		return tr
	}
	span := func(n int) []int32 {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		return ids
	}
	for _, c := range []struct {
		name  string
		tr    *Trace
		keyed bool
	}{
		{"eight cores", tied(span(8)...), true},
		{"keySlots cores", tied(span(keySlots)...), true},
		{"keySlots+1 cores", tied(span(keySlots + 1)...), false},
		{"ids to 255", tied(3, 254, 255), true},
		{"an id of 256", tied(3, 255, 256), false},
		{"ids by 300", tied(0, 300, 600, 900), false},
		{"a negative id", tied(0, 1, -1), false},
	} {
		acc := newTestAcc(4, 4)
		acc.replay(c.tr)
		got, want := acc.result(), refHeadroom(c.tr, 4, 4)
		if got.Pct = 0; got != want || got.Attainable >= got.Achieved {
			t.Errorf("%s: search %+v, reference %+v, want headroom found", c.name, got, want)
		}
		if acc.keyed != c.keyed {
			t.Errorf("%s: keyed = %v, want %v", c.name, acc.keyed, c.keyed)
		}
	}
	// A wake without candidates is placed on its chosen core all the same,
	// so that core needs a slot too.
	tr := tied(0, 1)
	tr.Recs[6] = Rec{Kind: KindWake, Core: 700}
	acc := newTestAcc(4, 4)
	acc.replay(tr)
	if got, want := acc.result(), refHeadroom(tr, 4, 4); acc.keyed || got.Attainable != want.Attainable {
		t.Errorf("candidate-less wake on core 700: keyed = %v, search %+v, reference %+v", acc.keyed, got, want)
	}
}

func FuzzHeadroomMatchesReference(f *testing.F) {
	for _, seed := range headroomSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}

// TestComputeHeadroomClampsBounds: out-of-range window and branch take the
// defaults (branch above MaxBranch is cut to it) instead of indexing out
// of the search's fixed arrays — a negative branch used to panic.
func TestComputeHeadroomClampsBounds(t *testing.T) {
	tr := contendedTrace(64)
	want := ComputeHeadroom(tr, defaultWindow, defaultBranch)
	if want.Attainable >= want.Achieved {
		t.Fatalf("fixture has no headroom: %+v", want)
	}
	for _, wb := range [][2]int{{0, -1}, {0, -1 << 40}, {-3, 0}, {MaxWindow + 1, 0}, {-1, -1}} {
		if got := ComputeHeadroom(tr, wb[0], wb[1]); got != want {
			t.Errorf("window %d branch %d: %+v, want the defaults' %+v", wb[0], wb[1], got, want)
		}
	}
	if got, want := ComputeHeadroom(tr, 0, MaxBranch+5), ComputeHeadroom(tr, 0, MaxBranch); got != want {
		t.Errorf("branch %d: %+v, want MaxBranch's %+v", MaxBranch+5, got, want)
	}
}

// contendedTrace is n wakes on an eight-core machine whose scheduler keeps
// waking threads onto its busiest core: every window has headroom, and
// tied depths keep the search from settling on its first leaf.
func contendedTrace(n int) *Trace {
	tr := &Trace{Header: Header{Window: defaultWindow}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		rec := Rec{Kind: KindWake, Cand: make([]Candidate, 8)}
		for c := range rec.Cand {
			rec.Cand[c] = Candidate{ID: int32(c), Key: int64(1 + rng.Intn(3))}
			if rec.Cand[c].Key > rec.Cand[rec.Core].Key {
				rec.Core = int32(c)
			}
		}
		tr.Recs = append(tr.Recs, rec)
	}
	return tr
}

// TestComputeHeadroomAllocFree: replaying a contended trace — every
// window searched — allocates nothing, accumulator included.
func TestComputeHeadroomAllocFree(t *testing.T) {
	tr := contendedTrace(256)
	if hr := ComputeHeadroom(tr, 0, 0); hr.Attainable >= hr.Achieved {
		t.Fatalf("fixture has no headroom: %+v", hr)
	}
	if avg := testing.AllocsPerRun(10, func() { ComputeHeadroom(tr, 0, 0) }); avg != 0 {
		t.Fatalf("ComputeHeadroom allocated %.1f times per call, want 0", avg)
	}
}
