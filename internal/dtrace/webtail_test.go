package dtrace_test

// The search measured and checked on recorded traffic: bundled scenarios
// run here with a decision trace, their decoded wakes replayed through the
// analyzer.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/scenario"
)

var webTail struct {
	once   sync.Once
	traces []*dtrace.Trace
	err    error
}

// webTailTraces is the web-tail fixture: the decoded traces of the bundled
// scenario's CFS and ULE trials at scale 0.25 with every decision
// recorded — the traffic of the `observed` benchmark workload, a saturated
// eight-core box where most depths tie, a quarter of its length.
func webTailTraces(tb testing.TB) []*dtrace.Trace {
	tb.Helper()
	webTail.once.Do(func() {
		sp, err := scenario.LoadBuiltin("web-tail")
		if err != nil {
			webTail.err = err
			return
		}
		sp.Trace, sp.Series, sp.Timeline = &scenario.TraceSpec{}, nil, nil
		rep, err := sp.Run(0.25)
		if err != nil {
			webTail.err = err
			return
		}
		for i := range rep.Trials {
			tr, err := dtrace.Decode(rep.Trials[i].TraceData)
			if err != nil {
				webTail.err = err
				return
			}
			webTail.traces = append(webTail.traces, tr)
		}
	})
	if webTail.err != nil {
		tb.Fatal(webTail.err)
	}
	return webTail.traces
}

// contendedWindows is the synthetic fixture's length in default windows.
const contendedWindows = 64

func contended() []*dtrace.Trace {
	return []*dtrace.Trace{dtrace.ContendedTrace(contendedWindows * 8)}
}

// searchCost sums SearchCost over a fixture's traces at the defaults.
func searchCost(traces []*dtrace.Trace) (windows int, nodes uint64) {
	for _, tr := range traces {
		_, w, n := dtrace.SearchCost(tr, 8, 4)
		windows, nodes = windows+w, nodes+n
	}
	return windows, nodes
}

// TestHeadroomNodeBudget pins what the search costs in nodes — a count, so
// unlike a timing it repeats exactly and can gate. Both fixtures at the
// defaults (8, 4): the exact totals, so any change to the search shows, and
// for web-tail a ceiling per window. With the suffix bound alone and no
// state table these read 7 982 (124.7 a window) and 812 545 (569.8).
func TestHeadroomNodeBudget(t *testing.T) {
	const (
		contendedNodes = 2415 // 37.7 a window
		webTailWindows = 1426
		webTailNodes   = 53599 // 37.6 a window
		webTailCeiling = 60    // nodes per window
	)
	if w, n := searchCost(contended()); w != contendedWindows || n != contendedNodes {
		t.Errorf("contended fixture: %d nodes over %d windows, want %d over %d", n, w, contendedNodes, contendedWindows)
	}
	w, n := searchCost(webTailTraces(t))
	if w != webTailWindows || n != webTailNodes {
		t.Errorf("web-tail fixture: %d nodes over %d windows, want %d over %d", n, w, webTailNodes, webTailWindows)
	}
	if per := float64(n) / float64(w); per > webTailCeiling {
		t.Errorf("web-tail fixture: %.1f nodes per window, want at most %d", per, webTailCeiling)
	}
}

// TestLibraryHeadroomAgrees: on every bundled scenario the verdict the
// streaming recorder reached online and the offline replay of its stream
// are the same integers, the accounting recorder of a replicated run
// reports the same headroom_pct bit for bit, and
// the reference search agrees on each trial's first windows (it is too
// slow for more: fork-storm's 32 tied cores cost it seconds a window).
func TestLibraryHeadroomAgrees(t *testing.T) {
	specs, err := scenario.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	const scale, refWakes = 0.05, 48
	for _, sp := range specs {
		cp := *sp
		cp.Series, cp.Timeline = nil, nil
		if cp.Trace == nil {
			cp.Trace = &scenario.TraceSpec{}
		}
		// A zero in the block is the analyzer's default.
		window, branch := cp.Trace.Window, cp.Trace.Branch
		if window == 0 {
			window = 8
		}
		if branch == 0 {
			branch = 4
		}
		plain, err := cp.Run(scale)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := cp.WithSeeds(cp.Seeds).Run(scale)
		if err != nil {
			t.Fatal(err)
		}
		if len(grid.Trials) != len(plain.Trials) {
			t.Fatalf("%s: %d plain trials, %d replicated", sp.Name, len(plain.Trials), len(grid.Trials))
		}
		for i := range plain.Trials {
			p, g := &plain.Trials[i], &grid.Trials[i]
			online := p.Trace.Headroom
			// The replicated trial reports only the metric, present whenever
			// a wake was analyzed (numa-imbalance never wakes); the integers
			// behind it are held equal by TestAccountingRecorderAllocBounded.
			pct, ok := g.Derived[scenario.MetricHeadroomPct]
			if ok != (online.Wakes > 0) || math.Float64bits(pct) != math.Float64bits(online.Pct) {
				t.Errorf("%s: accounting recorder headroom_pct %v (present %v), streaming %+v", p.Name, pct, ok, online)
			}
			tr, err := dtrace.Decode(p.TraceData)
			if err != nil {
				t.Fatal(err)
			}
			if offline := dtrace.ComputeHeadroom(tr, window, branch); offline != online || p.Trace.Summary.Dropped != 0 {
				t.Errorf("%s: offline %+v, online %+v (%d records dropped)", p.Name, offline, online, p.Trace.Summary.Dropped)
			}
			head := &dtrace.Trace{Header: tr.Header}
			for _, r := range tr.Recs {
				if r.Kind == dtrace.KindWake && len(head.Recs) < refWakes {
					head.Recs = append(head.Recs, r)
				}
			}
			got := dtrace.ComputeHeadroom(head, window, branch)
			got.Pct = 0
			if want := dtrace.RefHeadroom(head, window, branch); got != want {
				t.Errorf("%s: first %d wakes: search %+v, reference %+v", p.Name, len(head.Recs), got, want)
			}
		}
	}
}

// BenchmarkHeadroomWindow replays each fixture at the defaults (8
// decisions × branch 4) and reports, per window, the time and the nodes
// the search visited — the count the bounds and the state table exist to
// keep down.
func BenchmarkHeadroomWindow(b *testing.B) {
	for _, fx := range []struct {
		name   string
		traces func() []*dtrace.Trace
	}{
		{"contended", contended},
		{"web-tail", func() []*dtrace.Trace { return webTailTraces(b) }},
	} {
		b.Run(fx.name, func(b *testing.B) {
			traces := fx.traces()
			var windows int
			var nodes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				windows, nodes = searchCost(traces)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
			b.ReportMetric(float64(nodes)/float64(windows), "nodes/window")
		})
	}
}
