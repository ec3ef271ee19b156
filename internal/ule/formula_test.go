package ule

import (
	"testing"
	"testing/quick"
	"time"
)

// Formula vectors: each closed form ULE is modelled on, as (input,
// expected) pairs worked by hand from the formula's statement rather than
// read off the code. Where the model takes one reading of an ambiguous or
// divergent source, the vector is named after that choice and says what
// the other reading would give.
//
// The interactivity score (the paper's §2.2 formula box, scaling factor
// m = 50, r the runtime and s the sleep time of the last 5 s):
//
//	s > r:  m·r/s          (with FreeBSD's divisor, r / max(1, s/m))
//	s < r:  2m − m·s/r     (the penalty s / max(1, r/m), capped at m)
//	s = r:  m, or 0 with no history
//
// The box prints the r ≥ s branch as "m/(r/s) + m", which read literally is
// m + m·s/r: a score that falls as runtime grows and jumps from m to 2m at
// r = s. FreeBSD 11.1's sched_interact_score, and this model, read it as
// 2m − m·s/r, which is continuous at r = s and reaches 2m as sleep
// vanishes: "the penalty of fibo quickly rises to the maximum" (Figure 2).
func TestInteractScoreFormula(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name string
		r, s time.Duration
		want int
	}{
		{"no history", 0, 0, 0},
		{"only sleep", 0, time.Second, 0},
		{"only sleep, a little run", time.Millisecond, 5 * time.Second, 0},
		{"sleeps twice what it runs: m·r/s = 50/2", time.Second, 2 * time.Second, 25},
		{"sleeps four times what it runs: 50/4", time.Second, 4 * time.Second, 12},
		{"sleeps ten times what it runs: 50/10", 100 * ms, time.Second, 5},
		{"just under the threshold: 50·3/5", 300 * ms, 500 * ms, 30},
		{"r = s: both branches meet at m (the literal r ≥ s reading gives 2m)", time.Second, time.Second, 50},
		{"r = 2s: 2m − m/2 (the literal reading agrees here)", 2 * time.Second, time.Second, 75},
		{"r ≥ s read as 2m − m·s/r: r = 4s is 100 − 12 (the literal m + m·s/r is 62)", 4 * time.Second, time.Second, 88},
		{"no sleep: 2m, fibo's maximum (the literal reading gives m)", time.Second, 0, 100},
		// FreeBSD divides s by m before dividing r by it, in ticks; in
		// nanoseconds that truncation only shows below ~2.5 µs of sleep,
		// where a thread that sleeps more than it runs can score above m.
		{"integer divisor: s = 99 ns, r = 98 ns gives 98 / 1", 98, 99, 98},
	}
	for _, c := range cases {
		if got := interactScore(c.r, c.s); got != c.want {
			t.Errorf("%s: interactScore(%v, %v) = %d, want %d", c.name, c.r, c.s, got, c.want)
		}
	}
}

// TestInteractScoreRisesWithRuntime: at a fixed sleep time the score never
// falls as runtime grows — more running is never more interactive. The
// inputs are whole microseconds, where the integer divisor above cannot
// lift the s > r branch past m.
func TestInteractScoreRisesWithRuntime(t *testing.T) {
	f := func(r1, r2, s uint32) bool {
		lo, hi := min(r1, r2), max(r1, r2)
		us := func(v uint32) time.Duration { return time.Duration(v) * time.Microsecond }
		return interactScore(us(lo), us(s)) <= interactScore(us(hi), us(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The queue priority (sched_priority, scaled by the paper's port into one
// 0..119 space, §3): an interactive score spreads linearly over the
// interactive band, PriMinInteract + score·(PriMaxInteract −
// PriMinInteract)/InteractThresh; a batch thread sits at PriMinBatch plus
// its share of the 5 s history it ran, scaled over the batch band, plus
// its nice, clamped to the band.
//
// FreeBSD 11.1 calls a score interactive when it is *below*
// SCHED_INTERACT_THRESH (30), after adding the thread's nice to it; this
// model calls it interactive *at or below* 30 and leaves nice out of the
// test. The two vectors that pin those choices are named for them.
func TestPriorityVectors(t *testing.T) {
	p := DefaultParams()
	for _, c := range []struct {
		name        string
		score       int
		runtime     time.Duration
		nice        int
		pri         int
		interactive bool
	}{
		{"score 0: the top of the interactive band", 0, 0, 0, 0, true},
		{"score 15: 15·47/30", 15, time.Second, 0, 23, true},
		{"score 29: 29·47/30", 29, 0, 0, 45, true},
		{"score 30 is interactive here (≤ 30; FreeBSD's < 30 makes it batch)", 30, 0, 0, 47, true},
		{"score 20 at nice 19 stays interactive (FreeBSD would test 39)", 20, 0, 19, 31, true},
		{"score 31, no runtime: the top of the batch band", 31, 0, 0, 48, false},
		{"ran 1 s of the 5 s history: 48 + 63/5", 80, time.Second, 0, 60, false},
		{"ran 2.5 s: 48 + 63/2", 80, 2500 * time.Millisecond, 0, 79, false},
		{"ran the whole history: the bottom of the band", 100, 5 * time.Second, 0, 111, false},
		{"ran past the history: held at the bottom", 100, 10 * time.Second, 0, 111, false},
		{"nice 5 shifts a batch thread down five", 60, 0, 5, 53, false},
		{"nice −20 is clamped to the top of the batch band", 60, 0, -20, 48, false},
		{"nice 19 after the whole history is clamped to the bottom", 60, 5 * time.Second, 19, 111, false},
	} {
		pri, inter := p.priority(c.score, c.runtime, c.nice)
		if pri != c.pri || inter != c.interactive {
			t.Errorf("%s: priority(%d, %v, %d) = %d interactive=%v, want %d interactive=%v",
				c.name, c.score, c.runtime, c.nice, pri, inter, c.pri, c.interactive)
		}
	}
}

// TestPriorityRisesWithScore: at a fixed runtime and nice a higher score
// never earns a better (numerically lower) priority, across the
// interactive band, the threshold and the batch band.
func TestPriorityRisesWithScore(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint8, runtimeMS uint16, nice int8) bool {
		lo, hi := int(a)%101, int(b)%101
		if lo > hi {
			lo, hi = hi, lo
		}
		r := time.Duration(runtimeMS) * time.Millisecond
		n := int(nice) % 20
		plo, _ := p.priority(lo, r, n)
		phi, _ := p.priority(hi, r, n)
		return plo <= phi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The history clip (FreeBSD 11.1's sched_interact_update), with M =
// SCHED_SLP_RUN_MAX (the 5 s window) and sum = runtime + sleeptime:
//
//	sum < M:             keep the history
//	sum > 2M:            snap: the larger side to M, the other to 1; on a
//	                     tie runtime > sleeptime is false, so sleep wins
//	sum > (M/5)·6:       halve both
//	otherwise (M ≤ sum): each side to (side/5)·4
//
// Each boundary has a vector one ns either side of it.
func TestInteractUpdateVectors(t *testing.T) {
	p := DefaultParams()
	const s = time.Second
	for _, c := range []struct {
		name         string
		r, s         time.Duration
		wantR, wantS time.Duration
	}{
		{"sum = M − 1: kept", 1 * s, 4*s - 1, 1 * s, 4*s - 1},
		{"sum = M: 4/5 of each", 1 * s, 4 * s, 800 * time.Millisecond, 3200 * time.Millisecond},
		{"sum = M + 1: 4/5 of each, /5 truncating first", 1 * s, 4*s + 1, 800 * time.Millisecond, 3200 * time.Millisecond},
		{"sum = (M/5)·6: still 4/5", 2 * s, 4 * s, 1600 * time.Millisecond, 3200 * time.Millisecond},
		{"sum = (M/5)·6 + 1: halved", 2 * s, 4*s + 1, 1 * s, 2 * s},
		{"sum = 2M: still halved", 3 * s, 7 * s, 1500 * time.Millisecond, 3500 * time.Millisecond},
		{"sum = 2M + 1, sleep the larger: snap to (1, M)", 3 * s, 7*s + 1, 1, 5 * s},
		{"sum = 2M + 1, run the larger: snap to (M, 1)", 7*s + 1, 3 * s, 5 * s, 1},
		{"runtime = sleeptime past 2M: the tie snaps to sleep", 5*s + 1, 5*s + 1, 1, 5 * s},
	} {
		r, sl := c.r, c.s
		p.interactUpdate(&r, &sl)
		if r != c.wantR || sl != c.wantS {
			t.Errorf("%s: interactUpdate(%d, %d) = (%d, %d), want (%d, %d)", c.name, c.r, c.s, r, sl, c.wantR, c.wantS)
		}
	}
}

// The history a child inherits (FreeBSD 11.1's sched_interact_fork), with
// F the fork cap: when sum = runtime + sleeptime exceeds F, both sides
// are divided by the integer ratio = sum / F. For F < sum < 2F the ratio
// truncates to 1 and the history stays above the cap.
//
// Departure: FreeBSD's SCHED_SLP_RUN_FORK is (hz / 2) << SCHED_TICK_SHIFT,
// half a second; SlpRunForkMax defaults to 2 s, four times as much
// inherited history. The vectors use the model's default.
func TestInteractForkVectors(t *testing.T) {
	p := DefaultParams()
	if p.SlpRunForkMax != 2*time.Second {
		t.Fatalf("SlpRunForkMax = %v, want the model's 2 s (FreeBSD: 500 ms)", p.SlpRunForkMax)
	}
	const s = time.Second
	for _, c := range []struct {
		name         string
		r, s         time.Duration
		wantR, wantS time.Duration
	}{
		{"sum = F: kept", 1 * s, 1 * s, 1 * s, 1 * s},
		{"sum = F + 1: ratio 1, kept", 1 * s, 1*s + 1, 1 * s, 1*s + 1},
		{"F < sum < 2F: ratio 1, kept above the cap", 1500 * time.Millisecond, 1500 * time.Millisecond, 1500 * time.Millisecond, 1500 * time.Millisecond},
		{"sum = 2F: halved", 3 * s, 1 * s, 1500 * time.Millisecond, 500 * time.Millisecond},
		{"sum = 3F + 1: each side divided by 3, truncating", 4 * s, 2*s + 1, 1333333333, 666666667},
	} {
		r, sl := c.r, c.s
		p.interactFork(&r, &sl)
		if r != c.wantR || sl != c.wantS {
			t.Errorf("%s: interactFork(%d, %d) = (%d, %d), want (%d, %d)", c.name, c.r, c.s, r, sl, c.wantR, c.wantS)
		}
	}
}

// The timeslice by queue load, FreeBSD 11.1's tdq_slice:
//
//	load = tdq->tdq_sysload - 1;
//	if (load >= SCHED_SLICE_MIN_DIVISOR)
//		return (sched_slice_min);
//	if (load <= 1)
//		return (sched_slice);
//	return (sched_slice / load);
//
// with SCHED_SLICE_MIN_DIVISOR = 6. tdq_sysload counts the running thread
// too, as the model's tdq.load does. The model adds a floor of
// SliceMinTicks to the division, which never binds while sched_slice / 5
// is at least sched_slice_min.
//
// Departure: the model takes the paper's sched_slice of 10 ticks and
// sched_slice_min of 1 (params.go). 11.1 sets them at boot to realstathz /
// SCHED_SLICE_DEFAULT_DIVISOR and that over SCHED_SLICE_MIN_DIVISOR, 12
// and 2 at stathz 127. The vectors use the model's values.
func TestSliceVectors(t *testing.T) {
	s := &Sched{P: DefaultParams()}
	if s.P.SliceTicks != 10 || s.P.SliceMinTicks != 1 || s.P.SliceMinDivisor != 6 {
		t.Fatalf("slice params = %d/%d/%d, want the model's 10/1/6", s.P.SliceTicks, s.P.SliceMinTicks, s.P.SliceMinDivisor)
	}
	for _, c := range []struct {
		name    string
		sysload int
		want    int
	}{
		{"empty queue: load −1 ≤ 1, the whole slice", 0, 10},
		{"alone: load 0", 1, 10},
		{"one other: load 1 is still ≤ 1", 2, 10},
		{"load 2: 10/2", 3, 5},
		{"load 3: 10/3 truncates", 4, 3},
		{"load 4: 10/4 truncates", 5, 2},
		{"load 5: 10/5, the last division", 6, 2},
		{"load 6 = SCHED_SLICE_MIN_DIVISOR: the minimum", 7, 1},
		{"load 99: the minimum", 100, 1},
	} {
		if got := s.sliceFor(&tdq{load: c.sysload}); got != c.want {
			t.Errorf("%s: sliceFor(sysload %d) = %d, want %d", c.name, c.sysload, got, c.want)
		}
	}
}

// The calendar index of a batch priority, from FreeBSD 11.1's
// tdq_runq_add before the tdq_idx rotation:
//
//	pri = RQ_NQS * (pri - PRI_MIN_BATCH) / PRI_BATCH_RANGE;
//
// where PRI_BATCH_RANGE counts the band's priorities, max − min + 1. The
// model computes rel·(NQS − 1)/span with span = max − min. On its band,
// 48..111, both are 64·rel/64 and 63·rel/63: the identity, so every batch
// priority keeps a calendar slot of its own. (11.1's own band, 152..223,
// is 72 wide and folds 72 priorities into 64 slots.)
func TestBatchQueuePriVectors(t *testing.T) {
	if PriMinBatch != 48 || PriMaxBatch != 111 {
		t.Fatalf("batch band = %d..%d, want the model's 48..111", PriMinBatch, PriMaxBatch)
	}
	s := &Sched{}
	for _, c := range []struct {
		name string
		pri  int
		want int
	}{
		{"top of the band: 64·0/64", 48, 0},
		{"one below the top: 64·1/64", 49, 1},
		{"middle: 64·32/64", 80, 32},
		{"one above the bottom: 64·62/64", 110, 62},
		{"bottom of the band: 64·63/64, the last slot", 111, 63},
	} {
		if got := s.batchQueuePri(&tsd{pri: c.pri}); got != c.want {
			t.Errorf("%s: batchQueuePri(%d) = %d, want %d", c.name, c.pri, got, c.want)
		}
	}
}
