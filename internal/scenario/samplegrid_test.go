package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/runner"
)

// Sample grids (Spec.WithSeeds) run their recorders in accounting mode and
// report metric vectors. These tests pin the mode's contract: everything a
// replication is read for equals the plain spec's, no section a metric does
// not read and nothing of a stream exists, and the two modes never answer
// each other out of a cache.

// recorded returns sp with trace and timeline blocks where it has none, as
// the CLI's -trace/-timeline enable them, so every bundled scenario
// exercises both recorders. The added trace block searches 4-wake windows:
// fork-storm's 32 contended cores make the default 8 cost seconds a run.
func recorded(sp *Spec) *Spec {
	cp := *sp
	if cp.Trace == nil {
		cp.Trace = &TraceSpec{Window: 4}
	}
	if cp.Timeline == nil {
		cp.Timeline = &TimelineSpec{}
	}
	return &cp
}

// metricVector clears from a plain trial what a sample-grid trial does not
// carry: the five sections no metric reads and the two streams.
func metricVector(tr TrialReport) TrialReport {
	tr.Series, tr.CoreUtil, tr.Faults, tr.Trace, tr.Timeline = nil, nil, nil, nil, nil
	tr.TraceData, tr.TimelineData = nil, nil
	return tr
}

func mustRun(t *testing.T, sp *Spec, scale float64) *Report {
	t.Helper()
	rep, err := sp.Run(scale)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	out, err := MarshalReport(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSampleGridEqualsPlainRun: every bundled scenario, both engines —
// the replicated view's trials are the plain run's at the same seeds with
// Series, CoreUtil, Faults, Trace, Timeline and both streams dropped: the
// same metric set, every metric bit-equal, identity, Throughput, Latency,
// Counters and Derived JSON-equal; they conserve time and do not depend on
// the pool width.
func TestSampleGridEqualsPlainRun(t *testing.T) {
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.05
	for _, sp := range specs {
		for _, heap := range []bool{false, true} {
			name := sp.Name + "/wheel"
			if heap {
				name = sp.Name + "/heap"
			}
			t.Run(name, func(t *testing.T) {
				plainSpec := recorded(sp)
				gridSpec := plainSpec.WithSeeds(plainSpec.Seeds)
				var plain, grid *Report
				var grid1 []byte
				onEngine(t, heap, func() {
					runner.WithWorkers(8, func() {
						plain = mustRun(t, plainSpec, scale)
						grid = mustRun(t, gridSpec, scale)
					})
					runner.WithWorkers(1, func() { grid1 = reportBytes(t, gridSpec, scale) })
				})
				if !bytes.Equal(mustMarshal(t, grid), grid1) {
					t.Fatal("sample grid differs between -jobs 8 and -jobs 1")
				}
				if len(plain.Trials) != len(grid.Trials) || len(plain.Trials) == 0 {
					t.Fatalf("%d plain trials, %d replicated", len(plain.Trials), len(grid.Trials))
				}
				for i := range plain.Trials {
					p, g := &plain.Trials[i], &grid.Trials[i]
					if len(p.TraceData) == 0 || len(p.TimelineData) == 0 || p.Trace == nil || p.Timeline == nil {
						t.Fatalf("%s: plain run carries no streams or summaries", p.Name)
					}
					if (len(sp.Faults) > 0 && len(p.Faults) == 0) || (sp.Series != nil && len(p.Series) == 0) {
						t.Fatalf("%s: plain run echoes no faults or series", p.Name)
					}
					if g.Series != nil || g.CoreUtil != nil || g.Faults != nil || g.Trace != nil || g.Timeline != nil {
						t.Fatalf("%s: replicated trial carries a section no metric reads: %d series, %d utilizations, %d faults, trace %v, timeline %v",
							g.Name, len(g.Series), len(g.CoreUtil), len(g.Faults), g.Trace != nil, g.Timeline != nil)
					}
					if g.TraceData != nil || g.TimelineData != nil {
						t.Fatalf("%s: replicated trial carries %d trace and %d timeline bytes",
							g.Name, len(g.TraceData), len(g.TimelineData))
					}
					if !reflect.DeepEqual(p.Metrics(), g.Metrics()) {
						t.Fatalf("%s: metric sets differ: %v vs %v", p.Name, p.Metrics(), g.Metrics())
					}
					for _, d := range p.Metrics() {
						pv, _ := p.MetricValue(d.Name)
						if gv, ok := g.MetricValue(d.Name); !ok || math.Float64bits(gv) != math.Float64bits(pv) {
							t.Errorf("%s: %s = %v replicated, %v plain", p.Name, d.Name, gv, pv)
						}
					}
					// Identity, Throughput, Latency, Counters and Derived at once.
					if a, b := mustMarshal(t, metricVector(*p)), mustMarshal(t, *g); !bytes.Equal(a, b) {
						t.Fatalf("%s: replicated report differs from the plain one beyond the dropped sections:\nplain: %s\ngrid:  %s",
							p.Name, firstDiff(a, b), firstDiff(b, a))
					}
					d := g.Derived
					if sum := d[MetricRunFrac] + d[MetricWaitFrac] + d[MetricSleepFrac]; math.Abs(sum-1) > 1e-9 {
						t.Errorf("%s: run %v + wait %v + sleep %v does not conserve",
							g.Name, d[MetricRunFrac], d[MetricWaitFrac], d[MetricSleepFrac])
					}
				}
			})
		}
	}
}

// TestFingerprintSeparatesSampleGrid extends the mutate-one-field rule to
// the mode: the same cell compiled from the plain spec and from its
// replicated view must not share a key, and each is stable.
func TestFingerprintSeparatesSampleGrid(t *testing.T) {
	plain := firstKey(t, memoBaseSpec(), 0.5)
	base := memoBaseSpec()
	grid := firstKey(t, base.WithSeeds(base.Seeds), 0.5)
	if plain == grid {
		t.Fatal("plain and replicated cells share a fingerprint")
	}
	if again := firstKey(t, memoBaseSpec().WithSeeds(base.Seeds), 0.5); again != grid {
		t.Fatal("replicated fingerprint is not deterministic")
	}
	if firstKey(t, base, 0.5) != plain {
		t.Fatal("WithSeeds changed the source spec's fingerprint")
	}
}

// TestCacheNeverCrossesModes: a sample grid and the plain spec run against
// one shared disk cache. The plain run after the grid must still produce
// its streams, byte-identical to an uncached run; both modes then hit
// their own entries; a replicated trial served from the cache equals a
// fresh one; and damaged entries are misses that get repaired.
func TestCacheNeverCrossesModes(t *testing.T) {
	const scale = 0.05
	sp, err := Load("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	sp = recorded(sp)
	grid := sp.WithSeeds(sp.Seeds)

	defer core.SetTrialCache(nil)
	core.SetTrialCache(nil)
	freshPlain := mustRun(t, sp, scale)
	freshGrid := reportBytes(t, grid, scale)

	dir := t.TempDir()
	open := func() *memo.Cache {
		c, err := memo.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		core.SetTrialCache(c)
		return c
	}
	samePlain := func(what string, got *Report) {
		t.Helper()
		if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, freshPlain)) {
			t.Fatalf("%s: plain report differs from the uncached one", what)
		}
		for i := range got.Trials {
			g, f := &got.Trials[i], &freshPlain.Trials[i]
			if len(g.TraceData) == 0 || !bytes.Equal(g.TraceData, f.TraceData) || !bytes.Equal(g.TimelineData, f.TimelineData) {
				t.Fatalf("%s: %s: streams differ from the uncached run (%d/%d trace, %d/%d timeline bytes)",
					what, g.Name, len(g.TraceData), len(f.TraceData), len(g.TimelineData), len(f.TimelineData))
			}
		}
	}
	n := uint64(len(freshPlain.Trials))

	c := open()
	if got := reportBytes(t, grid, scale); !bytes.Equal(got, freshGrid) {
		t.Fatal("cold cached sample grid differs from the uncached one")
	}
	gridBytes := c.Stats().BytesWritten
	samePlain("after the grid", mustRun(t, sp, scale))
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2*n || st.Stores != 2*n {
		t.Fatalf("cold passes: %+v, want 0 hits and %d misses/stores (no entry answers the other mode)", st, 2*n)
	}
	if plainBytes := c.Stats().BytesWritten - gridBytes; gridBytes*10 > plainBytes {
		t.Fatalf("sample-grid entries took %d bytes, stream-bearing ones %d: streams are back in the grid", gridBytes, plainBytes)
	}

	// A fresh process: both modes are served from their own disk entries.
	c = open()
	if got := reportBytes(t, grid, scale); !bytes.Equal(got, freshGrid) {
		t.Fatal("cached sample grid differs from a fresh one")
	}
	samePlain("warm", mustRun(t, sp, scale))
	if st := c.Stats(); st.Hits != 2*n || st.Misses != 0 {
		t.Fatalf("warm passes: %+v, want %d hits and no miss", st, 2*n)
	}

	// Damage: truncate one entry, flip a byte in another. Both are misses
	// (counted corrupt), recomputed and repaired; outputs do not move.
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.memo"))
	if err != nil || uint64(len(entries)) != 2*n {
		t.Fatalf("%d cache entries (err %v), want %d", len(entries), err, 2*n)
	}
	for i, path := range entries[:2] {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			raw = raw[:len(raw)/2]
		} else {
			raw[len(raw)/2] ^= 0x01
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c = open()
	if got := reportBytes(t, grid, scale); !bytes.Equal(got, freshGrid) {
		t.Fatal("sample grid over damaged entries differs from a fresh one")
	}
	samePlain("over damaged entries", mustRun(t, sp, scale))
	if st := c.Stats(); st.Corrupt != 2 || st.Misses != 2 || st.Stores != 2 || st.Hits != 2*n-2 {
		t.Fatalf("damaged passes: %+v, want 2 corrupt = 2 misses = 2 stores and %d hits", st, 2*n-2)
	}
	c = open()
	mustRun(t, grid, scale)
	mustRun(t, sp, scale)
	if st := c.Stats(); st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("after repair: %+v, want no miss", st)
	}
}

// TestReplicatedTrialAllocBudget holds what one replication of the CI
// gate's web-tail group costs: seed 1 as a sample grid at the gate's scale
// (0.1, eight cores), one CFS and one ULE trial, both recorders in
// accounting mode. That is ~337 kB, the least of three runs after a warm-up
// (which pays one-time set-up). The budget is 2 % over it, because the
// fixed per-trial storage it guards is small beside a trial: a headroom
// window with room for 256 candidates per decision again (+32 KiB a trial
// at web-tail's window of 8, +19 %; the fixed array it replaced was 64 KiB)
// fails it, and so does a timeline thread table grown from empty by append
// (+2.5 %). Not under -race.
func TestReplicatedTrialAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	sp, err := LoadBuiltin("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	grid := sp.WithSeeds([]int64{1})
	const budget = 344_000
	got := ^uint64(0)
	runner.WithWorkers(1, func() {
		mustRun(t, grid, 0.1)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rep := mustRun(t, grid, 0.1)
			runtime.ReadMemStats(&after)
			if len(rep.Trials) != 2 {
				t.Fatalf("%d trials, want one per scheduler", len(rep.Trials))
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
	})
	t.Logf("one replication allocated %d bytes", got)
	if got > budget {
		t.Fatalf("one replication allocated %d bytes, budget %d", got, budget)
	}
}
