package battle

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// miniSpec is a tiny two-scheduler scenario: an open-loop stream (latency
// metrics) plus a batch loop (throughput), small enough that a 3-seed
// battle runs in milliseconds.
const miniSpec = `{
  "name": "mini-battle",
  "description": "two schedulers, one open-loop stream, one batch loop",
  "machine": {"cores": [2]},
  "schedulers": [{"kind": "cfs"}, {"kind": "ule"}],
  "window": "200ms",
  "workload": [
    {"name": "web", "openloop": {"workers": 2, "rate": 2000, "service": "150us"}},
    {"name": "batch", "loop": {"burst": "1ms"}, "count": 2}
  ]
}`

func miniBattle(t *testing.T, opt Options) *Report {
	t.Helper()
	sp, err := scenario.Parse("mini-battle.json", []byte(miniSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBattleReportShape(t *testing.T) {
	rep := miniBattle(t, Options{Replications: 3})
	if rep.Schema != Schema || rep.Scenario != "mini-battle" {
		t.Fatalf("header = %q %q", rep.Schema, rep.Scenario)
	}
	if len(rep.Seeds) != 3 || rep.Seeds[0] != 1 || rep.Seeds[2] != 3 {
		t.Fatalf("seeds = %v, want [1 2 3]", rep.Seeds)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(rep.Groups))
	}
	g := rep.Groups[0]
	if g.Cores != 2 || len(g.Schedulers) != 2 {
		t.Fatalf("group = %+v", g)
	}
	if len(g.Metrics) == 0 {
		t.Fatal("no metric tables formed")
	}
	for _, mt := range g.Metrics {
		if len(mt.Cells) != 2 {
			t.Fatalf("%s: %d cells, want 2", mt.Metric, len(mt.Cells))
		}
		if len(mt.Pairs) != 1 {
			t.Fatalf("%s: %d pairs, want 1", mt.Metric, len(mt.Pairs))
		}
		for _, c := range mt.Cells {
			if c.Sample.N != 3 || len(c.Values) != 3 {
				t.Fatalf("%s/%s: sample %+v values %v", mt.Metric, c.Scheduler, c.Sample, c.Values)
			}
			if !(c.CILo <= c.Sample.Mean && c.Sample.Mean <= c.CIHi) {
				t.Fatalf("%s/%s: mean %g outside its own CI [%g, %g]",
					mt.Metric, c.Scheduler, c.Sample.Mean, c.CILo, c.CIHi)
			}
		}
		p := mt.Pairs[0]
		switch p.Verdict {
		case VerdictTie:
			if p.Winner != "" || p.MarginPct != 0 {
				t.Fatalf("%s: tie with winner %q margin %g", mt.Metric, p.Winner, p.MarginPct)
			}
		case VerdictWin:
			if p.Winner != p.A {
				t.Fatalf("%s: verdict win but winner %q != %q", mt.Metric, p.Winner, p.A)
			}
		case VerdictLoss:
			if p.Winner != p.B {
				t.Fatalf("%s: verdict loss but winner %q != %q", mt.Metric, p.Winner, p.B)
			}
		default:
			t.Fatalf("%s: unknown verdict %q", mt.Metric, p.Verdict)
		}
	}
	// The per-entry tail metric must be present: web records latency.
	found := false
	for _, mt := range g.Metrics {
		if mt.Metric == "p99_us[web]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-entry metric p99_us[web] missing; metrics: %v", metricNames(g))
	}
	// Scoreboard totals must account for every pair of every metric.
	wins, losses, ties := 0, 0, 0
	for _, s := range g.Scoreboard {
		wins += s.Wins
		losses += s.Losses
		ties += s.Ties
	}
	if wins != losses || wins+ties/2 != len(g.Metrics) {
		t.Fatalf("scoreboard inconsistent: wins %d losses %d ties %d over %d metrics",
			wins, losses, ties, len(g.Metrics))
	}
}

func metricNames(g Group) []string {
	var names []string
	for _, mt := range g.Metrics {
		names = append(names, mt.Metric)
	}
	return names
}

// TestBattleDeterminismAcrossJobs is the battle byte-identity guarantee:
// the marshalled battle matrix and its markdown rendering must be
// byte-identical at -jobs 1 and -jobs 8.
func TestBattleDeterminismAcrossJobs(t *testing.T) {
	var j1, j8 *Report
	runner.WithWorkers(1, func() { j1 = miniBattle(t, Options{Replications: 4}) })
	runner.WithWorkers(8, func() { j8 = miniBattle(t, Options{Replications: 4}) })

	b1, err := scenario.MarshalReport(j1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := scenario.MarshalReport(j8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("battle JSON differs between -jobs 1 and -jobs 8:\n%s\n---\n%s", b1, b8)
	}
	if m1, m8 := j1.Markdown(), j8.Markdown(); m1 != m8 {
		t.Fatalf("battle markdown differs between -jobs 1 and -jobs 8:\n%s\n---\n%s", m1, m8)
	}
}

// TestBattleConvergenceVerdictAcrossJobs is the telemetry acceptance
// gate: a bundled scenario with a series block (web-tail) must produce a
// battle verdict over the derived convergence_us metric, byte-identical
// at -jobs 1 and -jobs 8.
func TestBattleConvergenceVerdictAcrossJobs(t *testing.T) {
	sp, err := scenario.LoadBuiltin("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		rep, err := Run(sp, Options{Replications: 3, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	var j1, j8 *Report
	runner.WithWorkers(1, func() { j1 = run() })
	runner.WithWorkers(8, func() { j8 = run() })

	found := false
	for _, g := range j1.Groups {
		for _, mt := range g.Metrics {
			if mt.Metric != scenario.MetricConvergenceUS {
				continue
			}
			found = true
			if mt.Better != scenario.Lower {
				t.Fatalf("convergence_us direction = %q, want lower", mt.Better)
			}
			if len(mt.Cells) != 2 || len(mt.Pairs) != 1 {
				t.Fatalf("convergence_us table malformed: %d cells, %d pairs", len(mt.Cells), len(mt.Pairs))
			}
			if v := mt.Pairs[0].Verdict; v != VerdictWin && v != VerdictLoss && v != VerdictTie {
				t.Fatalf("convergence_us verdict = %q", v)
			}
		}
	}
	if !found {
		t.Fatal("no convergence_us metric table in the web-tail battle")
	}

	b1, err := scenario.MarshalReport(j1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := scenario.MarshalReport(j8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatal("convergence battle matrix differs between -jobs 1 and -jobs 8")
	}
}

// TestBattleBootstrapStability: identical runs draw identical bootstrap
// streams (the generators are seeded from stable cell keys), so repeated
// in-process runs agree bit-for-bit.
func TestBattleBootstrapStability(t *testing.T) {
	a := miniBattle(t, Options{Replications: 3})
	b := miniBattle(t, Options{Replications: 3})
	ba, _ := scenario.MarshalReport(a)
	bb, _ := scenario.MarshalReport(b)
	if !bytes.Equal(ba, bb) {
		t.Fatal("repeated battle runs disagree: bootstrap seeding is unstable")
	}
}

// TestReplicationSeeds: the spec's pinned seeds lead, unique fill seeds
// follow.
func TestReplicationSeeds(t *testing.T) {
	sp := &scenario.Spec{Seeds: []int64{7, 9}}
	got := sp.ReplicationSeeds(4)
	want := []int64{7, 9, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReplicationSeeds(4) = %v, want %v", got, want)
		}
	}
	if n := len(sp.ReplicationSeeds(1)); n != 1 {
		t.Fatalf("ReplicationSeeds(1) len = %d", n)
	}
	// Fill must skip seeds the spec already pinned.
	sp = &scenario.Spec{Seeds: []int64{2}}
	got = sp.ReplicationSeeds(3)
	if got[0] != 2 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("ReplicationSeeds(3) = %v, want [2 1 3]", got)
	}
}

// TestComparePairVerdicts drives the verdict logic directly with synthetic
// samples.
func TestComparePairVerdicts(t *testing.T) {
	opt := Options{}.withDefaults()
	// B strictly larger on a higher-is-better metric: B wins.
	xa := []float64{10, 11, 10, 12, 11}
	xb := []float64{20, 21, 20, 22, 21}
	p := comparePair("a", "b", xa, xb, scenario.Higher, opt, 1)
	if p.Verdict != VerdictLoss || p.Winner != "b" {
		t.Fatalf("higher-better: %+v", p)
	}
	if p.MarginPct < 50 {
		t.Fatalf("margin = %g, want ~90+%%", p.MarginPct)
	}
	// Same data on a lower-is-better metric: A wins.
	p = comparePair("a", "b", xa, xb, scenario.Lower, opt, 1)
	if p.Verdict != VerdictWin || p.Winner != "a" {
		t.Fatalf("lower-better: %+v", p)
	}
	// Identical samples: tie with a collapsed zero interval.
	p = comparePair("a", "b", xa, xa, scenario.Higher, opt, 1)
	if p.Verdict != VerdictTie || p.Winner != "" || p.DeltaCILo != 0 || p.DeltaCIHi != 0 {
		t.Fatalf("identical samples: %+v", p)
	}
}

// TestBattleCacheEntriesCarryNoStreams: Run replicates through a sample
// grid whose cached trials hold no streams, under fingerprints of their
// own — so a plain run of the same scenario on the same cache afterwards
// is answered by none of them and still yields its trace and timeline
// streams, byte-identical to an uncached run.
func TestBattleCacheEntriesCarryNoStreams(t *testing.T) {
	sp, err := scenario.Load("web-tail")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.05
	defer core.SetTrialCache(nil)
	core.SetTrialCache(nil)
	fresh, err := sp.Run(scale)
	if err != nil {
		t.Fatal(err)
	}
	freshBattle, err := Run(sp, Options{Replications: 3, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}

	c, err := memo.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	core.SetTrialCache(c)
	cold, err := Run(sp, Options{Replications: 3, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	battleStats := c.Stats()
	plain, err := sp.Run(scale)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Stores != battleStats.Stores+uint64(len(plain.Trials)) {
		t.Fatalf("plain run after the battle: %+v (battle alone %+v), want no hit and every trial stored", st, battleStats)
	}
	for i := range plain.Trials {
		g, f := &plain.Trials[i], &fresh.Trials[i]
		if len(g.TraceData) == 0 || len(g.TimelineData) == 0 ||
			!bytes.Equal(g.TraceData, f.TraceData) || !bytes.Equal(g.TimelineData, f.TimelineData) {
			t.Fatalf("%s: streams after a battle on the same cache differ from an uncached run", g.Name)
		}
	}
	// The battle itself: stream-less entries, and cached == fresh.
	if perTrial := battleStats.BytesWritten / battleStats.Stores; perTrial > 64<<10 {
		t.Fatalf("battle entries average %d bytes: streams are back in replicated trials", perTrial)
	}
	warm, err := Run(sp, Options{Replications: 3, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != battleStats.Stores {
		t.Fatalf("warm battle: %+v, want %d hits", c.Stats(), battleStats.Stores)
	}
	want, _ := scenario.MarshalReport(freshBattle)
	for what, rep := range map[string]*Report{"cold": cold, "warm": warm} {
		if got, _ := scenario.MarshalReport(rep); !bytes.Equal(got, want) {
			t.Fatalf("%s cached battle differs from the uncached one", what)
		}
	}
}
