package timeline

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// record runs a tiny deterministic fixture and returns the recorder plus
// its exported trace bytes.
func record(t testing.TB, counters []CounterTrack) (*Recorder, []byte) {
	t.Helper()
	m := sim.NewMachine(topo.SingleCore(), sim.NewFIFO(), sim.Options{Seed: 11})
	r := Attach(m)
	m.StartThread("a", "app", 0, &runSleeper{run: 500 * time.Microsecond, sleep: 300 * time.Microsecond})
	m.StartThread("b", "app", 0, &runSleeper{run: 200 * time.Microsecond, sleep: 600 * time.Microsecond})
	m.Run(5 * time.Millisecond)
	r.Close()
	return r, r.AppendPerfetto(nil, counters)
}

// TestPerfettoGoldenShape is the golden test the acceptance criteria ask
// for: the export must be valid trace-event JSON with the envelope,
// metadata, slices, and instants Perfetto's legacy importer understands.
func TestPerfettoGoldenShape(t *testing.T) {
	counters := []CounterTrack{{Name: "runq.core0", Points: [][2]float64{{0, 0}, {1000, 2}, {2000, 1}}}}
	r, data := record(t, counters)

	if !json.Valid(data) {
		t.Fatalf("export is not valid JSON:\n%s", data)
	}
	tr, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("DecodeTrace rejected own export: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	if tr.OtherData.Schema != SchemaName {
		t.Fatalf("schema = %q, want %q", tr.OtherData.Schema, SchemaName)
	}

	var metas, slices, instants, cnts int
	var procNamed, cpuNamed bool
	for _, e := range tr.Events {
		switch e.Ph {
		case "M":
			metas++
			if e.Name == "process_name" {
				procNamed = true
			}
			if e.Name == "thread_name" {
				if n, _ := e.Args["name"].(string); n == "cpu0" {
					cpuNamed = true
				}
			}
		case "X":
			slices++
			if !strings.Contains(e.Name, " T") {
				t.Fatalf("slice name %q missing thread id suffix", e.Name)
			}
			if _, ok := e.Args["tid"].(float64); !ok {
				t.Fatalf("slice args missing tid: %+v", e.Args)
			}
			if _, ok := e.Args["wait_us"].(float64); !ok {
				t.Fatalf("slice args missing wait_us: %+v", e.Args)
			}
		case "i":
			instants++
			if e.Scope != "t" {
				t.Fatalf("instant scope = %q, want t", e.Scope)
			}
			if e.Name != "wake" && e.Name != "migrate" && e.Name != "steal" {
				t.Fatalf("unexpected instant name %q", e.Name)
			}
		case "C":
			cnts++
			if e.Name != "runq.core0" {
				t.Fatalf("counter name = %q", e.Name)
			}
			if _, ok := e.Args["value"].(float64); !ok {
				t.Fatalf("counter args missing value: %+v", e.Args)
			}
		}
	}
	if !procNamed || !cpuNamed {
		t.Fatalf("missing metadata: process_name=%v cpu0=%v", procNamed, cpuNamed)
	}
	if slices == 0 || instants == 0 {
		t.Fatalf("export has %d slices, %d instants — want both > 0", slices, instants)
	}
	if cnts != 3 {
		t.Fatalf("counter events = %d, want 3", cnts)
	}
	if got := uint64(slices); got != r.Summary().Slices {
		t.Fatalf("exported %d slices, recorder counted %d", got, r.Summary().Slices)
	}
}

// TestPerfettoDeterministic: same fixture twice → byte-identical export.
func TestPerfettoDeterministic(t *testing.T) {
	_, a := record(t, nil)
	_, b := record(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different trace bytes")
	}
}

func TestDecodeTraceRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"not json", `{`, "decoding trace JSON"},
		{"no events", `{"displayTimeUnit":"ms"}`, "no traceEvents"},
		{"unknown phase", `{"traceEvents":[{"ph":"Z","ts":1}]}`, `unknown phase "Z"`},
		{"nameless slice", `{"traceEvents":[{"ph":"X","ts":1,"dur":1}]}`, "without a name"},
		{"negative ts", `{"traceEvents":[{"ph":"X","name":"x","ts":-1,"dur":1}]}`, "negative ts"},
		{"negative instant", `{"traceEvents":[{"ph":"i","name":"wake","ts":-5}]}`, "negative ts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTrace([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	if _, err := DecodeTrace([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Fatalf("empty traceEvents must be accepted: %v", err)
	}
}

func TestTimehistRender(t *testing.T) {
	_, data := record(t, nil)
	tr, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Timehist(&buf, 10, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"time(ms)", "cpu", "task", "wait(us)", "run(us)",
		"worst wakeup dispatch latencies:", "more slices"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timehist output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("suspiciously short output:\n%s", out)
	}

	// maxRows=0 renders everything; the truncation marker must vanish.
	buf.Reset()
	if err := tr.Timehist(&buf, 0, 3); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "more slices") {
		t.Fatal("maxRows=0 must not truncate")
	}

	// A trace without slices renders the empty-latency message.
	empty := &Trace{Events: []TraceEvent{{Ph: "M", Name: "process_name"}}}
	buf.Reset()
	if err := empty.Timehist(&buf, 0, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no wakeup dispatches recorded") {
		t.Fatalf("empty trace output:\n%s", buf.String())
	}
}

func TestAppendJSONStringEscapes(t *testing.T) {
	got := string(appendJSONString(nil, "a\"b\\c\nd"))
	want := `"a\"b\\c\u000ad"`
	if got != want {
		t.Fatalf("appendJSONString = %s, want %s", got, want)
	}
	var s string
	if err := json.Unmarshal([]byte(got), &s); err != nil || s != "a\"b\\c\nd" {
		t.Fatalf("round-trip failed: %q, %v", s, err)
	}
}

// TestAppendUSMatchesStrconv pins the export's timestamp bytes: the integer
// formatter must append exactly what the float formatter it replaced did,
// at every boundary of its three regimes and across magnitudes.
func TestAppendUSMatchesStrconv(t *testing.T) {
	cases := []int64{
		0, 1, 9, 10, 99, 100, 999, // below 1 µs
		1e3, 1001, 1010, 1100, 1500, 999_999, 1e6, 1_000_001, // whole and fractional µs
		999_999_999, 1e9, 1e9 + 1, 1_000_000_010, 1_234_567_891, // where shortest-'g' turns to exponent form
		12e9, 12e9 + 345, 1e12, 3_600e9, 999_999_999_999_999, // long spans
		1e15, 1e15 + 1, 1 << 53, 1<<53 + 1, math.MaxInt64, // past the 15-digit argument
		-1, -1500, math.MinInt64, // never recorded, still the same bytes
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		cases = append(cases, rng.Int63()>>uint(rng.Intn(63)))
	}
	prefix := []byte(`"ts":`)
	for _, ns := range cases {
		want := strconv.AppendFloat(prefix[:len(prefix):len(prefix)], float64(ns)/1e3, 'g', -1, 64)
		got := appendUS(prefix[:len(prefix):len(prefix)], ns)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendUS(%d) = %s, want %s", ns, got, want)
		}
	}
}
