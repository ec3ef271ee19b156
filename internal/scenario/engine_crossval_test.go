package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/core"
)

// Cross-validation of the two event queues: the timer wheel must be
// byte-interchangeable with the binary heap, the reference engine. One
// reordered pair of same-timestamp events would cascade into different
// seeds, migrations and figures, so this is the engine's end-to-end
// determinism gate, on top of the oracle tests in internal/sim. Every
// bundled scenario runs as shipped and with trace and timeline forced on
// (the sample grid is TestSampleGridEqualsPlainRun's /heap leg); the forced
// streams and hotplug-storm + noisy-neighbor (all four fault kinds) stand
// in for heap legs in the dtrace and fault packages. No trial cache: every
// leg simulates.

// forceEventHeap is internal/sim's engine switch: every machine built while
// it is set runs on the heap. sim exports no way to set it, so that only
// tests can; this package's tests reach it by its link name, and onEngine
// checks that a machine built under it really lands on the heap.
//
//go:linkname forceEventHeap repro/internal/sim.forceEventHeap
var forceEventHeap atomic.Bool

// onEngine runs fn with every machine built on the heap (or the wheel), and
// fails unless a machine built under the switch really runs there.
func onEngine(t *testing.T, heap bool, fn func()) {
	t.Helper()
	if core.TrialCache() != nil {
		t.Fatal("a trial cache would answer the second engine's trials from the first's")
	}
	prev := forceEventHeap.Swap(heap)
	defer forceEventHeap.Store(prev)
	m := core.NewMachine(core.MachineConfig{Cores: 1, Kind: core.FIFO})
	if got := reflect.ValueOf(m).Elem().FieldByName("useHeap").Bool(); got != heap {
		t.Fatalf("engine switch set to heap=%v, but a new machine runs on heap=%v", heap, got)
	}
	fn()
}

// sameOnBothEngines runs produce under the wheel and then the heap and
// requires the same named outputs, byte for byte.
func sameOnBothEngines(t *testing.T, produce func() ([]string, [][]byte)) {
	t.Helper()
	var names []string
	var wheel, heap [][]byte
	onEngine(t, false, func() { names, wheel = produce() })
	onEngine(t, true, func() { _, heap = produce() })
	for i := range wheel {
		if !bytes.Equal(wheel[i], heap[i]) {
			t.Errorf("%s differs between the wheel and the heap:\nwheel: %s\nheap:  %s",
				names[i], firstDiff(wheel[i], heap[i]), firstDiff(heap[i], wheel[i]))
		}
	}
}

func TestBundledScenariosEngineCrossValidation(t *testing.T) {
	specs, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.05
	for _, sp := range specs {
		legs := []struct {
			name string
			spec *Spec
		}{{"plain", sp}, {"streams", recorded(sp)}}
		t.Run(sp.Name, func(t *testing.T) {
			sameOnBothEngines(t, func() (names []string, outs [][]byte) {
				for _, leg := range legs {
					rep := mustRun(t, leg.spec, scale)
					names, outs = append(names, leg.name+" report"), append(outs, mustMarshal(t, rep))
					for _, tr := range rep.Trials {
						if leg.name == "streams" && (len(tr.TraceData) == 0 || len(tr.TimelineData) == 0) {
							t.Fatalf("%s: %d trace and %d timeline bytes", tr.Name, len(tr.TraceData), len(tr.TimelineData))
						}
						names = append(names, fmt.Sprintf("%s %s trace", leg.name, tr.Name), fmt.Sprintf("%s %s timeline", leg.name, tr.Name))
						outs = append(outs, tr.TraceData, tr.TimelineData)
					}
				}
				return names, outs
			})
		})
	}
}

func TestExperimentsEngineCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment runs")
	}
	for _, tc := range []struct {
		id    string
		scale float64
	}{
		{"fig6", 0.1}, // pinned-phase balancer convergence: migration-order sensitive
		{"fig7", 0.2}, // wake chain: wakeup-order sensitive
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, err := core.ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			sameOnBothEngines(t, func() ([]string, [][]byte) {
				return []string{tc.id + " report"}, [][]byte{mustMarshal(t, FromResult(e.Run(tc.scale)))}
			})
		})
	}
}

// streamsOnBothEngines requires each trial's stream, as read by data, to be
// non-empty and the same under both engines.
func streamsOnBothEngines(t *testing.T, file, src string, data func(*TrialReport) []byte) {
	t.Helper()
	sp, err := Parse(file, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sameOnBothEngines(t, func() (names []string, outs [][]byte) {
		rep := mustRun(t, sp, 0.25)
		for i := range rep.Trials {
			tr := &rep.Trials[i]
			if len(data(tr)) == 0 {
				t.Fatalf("%s: empty stream", tr.Name)
			}
			names, outs = append(names, tr.Name), append(outs, data(tr))
		}
		return names, outs
	})
}

// TestTraceEngineCrossValidation: identical trace bytes whether the sim
// runs on the timer wheel or the binary event heap.
func TestTraceEngineCrossValidation(t *testing.T) {
	streamsOnBothEngines(t, "mini-trace.json", traceSpec, func(tr *TrialReport) []byte { return tr.TraceData })
}

// TestTimelineEngineCrossValidation: identical timeline bytes whether the
// sim runs on the timer wheel or the binary event heap.
func TestTimelineEngineCrossValidation(t *testing.T) {
	streamsOnBothEngines(t, "mini-timeline.json", timelineSpec, func(tr *TrialReport) []byte { return tr.TimelineData })
}
