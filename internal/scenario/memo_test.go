package scenario

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
)

// memoBaseSpec builds a small but block-complete spec — workload, metrics,
// series, trace, timeline, faults — so every fingerprinted field has a
// value the mutators below can move.
func memoBaseSpec() *Spec {
	return &Spec{
		Name:    "memo-base",
		Machine: MachineSpec{Cores: []int{2}},
		Schedulers: []SchedSpec{
			{Kind: "ule"},
		},
		Seeds:  []int64{1},
		Window: Dur(1_000_000_000), // 1s
		Workload: []Entry{
			{Name: "spin", Loop: &LoopSpec{Burst: Dur(1_000_000)}, Count: 2},
		},
		Metrics:  []string{MetricThroughput},
		Series:   &SeriesSpec{Probes: []string{"runq"}},
		Trace:    &TraceSpec{Sample: 2},
		Timeline: &TimelineSpec{},
		Faults: []FaultSpec{
			{Kind: "throttle", At: Dur(400_000_000), Duration: Dur(100_000_000), Factor: 0.5},
		},
	}
}

// firstKey compiles the spec and returns its first cell's fingerprint.
func firstKey(t *testing.T, s *Spec, scale float64) memo.Key {
	t.Helper()
	trials, err := s.Compile(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 {
		t.Fatal("no trials compiled")
	}
	if trials[0].CacheKey.IsZero() {
		t.Fatal("compiled trial has no cache key")
	}
	if trials[0].Encode == nil || trials[0].Decode == nil {
		t.Fatal("compiled trial has no cache codec")
	}
	return trials[0].CacheKey
}

// TestFingerprintSensitivity mutates one fingerprinted input at a time and
// requires the cell key to move — a stale-hit on any of these would serve
// a wrong cached result. The unmutated spec must reproduce its key exactly.
func TestFingerprintSensitivity(t *testing.T) {
	base := firstKey(t, memoBaseSpec(), 0.5)
	if again := firstKey(t, memoBaseSpec(), 0.5); again != base {
		t.Fatal("fingerprint is not deterministic across compiles")
	}

	mutations := map[string]func(*Spec){
		"name":           func(s *Spec) { s.Name = "memo-other" },
		"kernel-noise":   func(s *Spec) { s.Machine.KernelNoise = true },
		"window":         func(s *Spec) { s.Window *= 2 },
		"workload-burst": func(s *Spec) { s.Workload[0].Loop.Burst *= 2 },
		"workload-count": func(s *Spec) { s.Workload[0].Count = 3 },
		"workload-nice":  func(s *Spec) { s.Workload[0].Nice = 5 },
		"workload-label": func(s *Spec) { s.Workload[0].Name = "other" },
		"metrics":        func(s *Spec) { s.Metrics = []string{MetricLatency} },
		"series-probe":   func(s *Spec) { s.Series.Probes = []string{"util"} },
		"series-cadence": func(s *Spec) { s.Series.Cadence = Dur(100_000_000) },
		"series-dropped": func(s *Spec) { s.Series = nil },
		"trace-sample":   func(s *Spec) { s.Trace.Sample = 4 },
		"trace-dropped":  func(s *Spec) { s.Trace = nil },
		"timeline-drop":  func(s *Spec) { s.Timeline = nil },
		"fault-at":       func(s *Spec) { s.Faults[0].At = Dur(500_000_000) },
		"fault-factor":   func(s *Spec) { s.Faults[0].Factor = 0.25 },
		"fault-dropped":  func(s *Spec) { s.Faults = nil },
		"cores":          func(s *Spec) { s.Machine.Cores = []int{4} },
		"scheduler-kind": func(s *Spec) { s.Schedulers = []SchedSpec{{Kind: "cfs"}} },
		"sched-params":   func(s *Spec) { s.Schedulers[0].ULE = []byte(`{"SliceTicks": 20}`) },
		"seed":           func(s *Spec) { s.Seeds = []int64{2} },
		"scale-axis":     func(s *Spec) { s.Scales = []float64{0.5} },
	}
	seen := map[memo.Key]string{base: "base"}
	for name, mutate := range mutations {
		s := memoBaseSpec()
		mutate(s)
		k := firstKey(t, s, 0.5)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q produced the same fingerprint as %q", name, prev)
			continue
		}
		seen[k] = name
	}

	// CLI scale and the process-wide base seed move the key too. (The CLI
	// scale is fingerprinted as the EFFECTIVE per-cell scale, so cli 0.25
	// over axis [1] deliberately equals the scale-axis mutation's cli 0.5
	// over axis [0.5] — same trial, same key.)
	if k := firstKey(t, memoBaseSpec(), 0.25); k == base {
		t.Error("cli scale change did not move the fingerprint")
	}
	core.SetBaseSeed(99)
	kBase := firstKey(t, memoBaseSpec(), 0.5)
	core.SetBaseSeed(0)
	if kBase == base {
		t.Error("base-seed perturbation did not move the fingerprint")
	}
}

// TestCachedVsFreshByteIdentity is the memoization correctness gate: for
// every bundled scenario, a warm (all-hits) re-run must reproduce the cold
// run to the byte — the marshalled report AND the out-of-band trace and
// timeline streams the report JSON excludes.
func TestCachedVsFreshByteIdentity(t *testing.T) {
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.02
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			c, err := memo.New("")
			if err != nil {
				t.Fatal(err)
			}
			core.SetTrialCache(c)
			defer core.SetTrialCache(nil)

			cold, err := sp.Run(scale)
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Stores == 0 {
				t.Fatal("cold run stored nothing")
			}
			warm, err := sp.Run(scale)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got.Hits == st.Hits {
				t.Fatal("warm run hit nothing")
			}

			coldJSON, err := MarshalReport(cold)
			if err != nil {
				t.Fatal(err)
			}
			warmJSON, err := MarshalReport(warm)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(coldJSON, warmJSON) {
				t.Fatalf("cached report differs from fresh:\ncold: %s\nwarm: %s",
					firstDiff(coldJSON, warmJSON), firstDiff(warmJSON, coldJSON))
			}
			if len(cold.Trials) != len(warm.Trials) {
				t.Fatalf("trial counts differ: %d vs %d", len(cold.Trials), len(warm.Trials))
			}
			for i := range cold.Trials {
				if !bytes.Equal(cold.Trials[i].TraceData, warm.Trials[i].TraceData) {
					t.Fatalf("trial %s: cached trace stream differs from fresh", cold.Trials[i].Name)
				}
				if !bytes.Equal(cold.Trials[i].TimelineData, warm.Trials[i].TimelineData) {
					t.Fatalf("trial %s: cached timeline stream differs from fresh", cold.Trials[i].Name)
				}
			}
		})
	}
}

// TestEnvelopeRoundTripsOutOfBandData pins the codec on a report carrying
// every out-of-band stream.
func TestEnvelopeRoundTripsOutOfBandData(t *testing.T) {
	in := TrialReport{
		Name:         "env/c1/ule/x1/s1",
		Cores:        1,
		Scheduler:    "ule",
		Seed:         1,
		Scale:        0.30000000000000004, // an awkward float must survive
		Derived:      map[string]float64{"x": 1e-17, "y": 3.14},
		Counters:     map[string]uint64{"switches": 1<<53 + 1},
		TraceData:    []byte{0x00, 0x01, 0xfe, 0xff},
		TimelineData: []byte(`{"traceEvents":[]}`),
	}
	enc, err := encodeTrialReport(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeTrialReport(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.TraceData, in.TraceData) || !bytes.Equal(out.TimelineData, in.TimelineData) {
		t.Fatal("out-of-band data did not round-trip")
	}
	a, err := MarshalReport(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("decoded report marshals differently:\n%s\nvs\n%s", a, b)
	}
	if out.Counters["switches"] != in.Counters["switches"] {
		t.Fatalf("uint64 counter lost precision: %d vs %d", out.Counters["switches"], in.Counters["switches"])
	}
}

// TestGridDedupDuplicateSeedCells: a spec whose seed axis repeats a value
// compiles identical cells; the grid must simulate the cell once and fan
// the report out — with no cache installed at all.
func TestGridDedupDuplicateSeedCells(t *testing.T) {
	if core.TrialCache() != nil {
		t.Fatal("test requires no installed cache")
	}
	s := memoBaseSpec()
	s.Series, s.Trace, s.Timeline, s.Faults = nil, nil, nil, nil
	s.Seeds = []int64{5, 5, 6}
	before := core.DedupedTrials()
	rep, err := s.Run(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.DedupedTrials() - before; got != 1 {
		t.Fatalf("deduped %d cells, want 1 (seed 5 repeated once)", got)
	}
	if len(rep.Trials) != 3 {
		t.Fatalf("got %d trials, want 3", len(rep.Trials))
	}
	a, err := MarshalReport(rep.Trials[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalReport(rep.Trials[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("duplicate seed cells produced different reports")
	}
	cJSON, err := MarshalReport(rep.Trials[2])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, cJSON) {
		t.Fatal("distinct seed cell produced an identical report")
	}
}
