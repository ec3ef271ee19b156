package timeline

// Chrome trace-event / Perfetto JSON export of a recorded timeline, plus
// the decoder/validator its consumers (the -timehist renderer, the golden
// shape test, CI smoke) share. The rendering is a pure function of the
// recorder's deterministic state, so exported files are byte-identical at
// any -jobs width and across event engines.
//
// Mapping (loadable at ui.perfetto.dev):
//   - one process (pid 0) named after the machine, one named thread track
//     per core ("cpu0".."cpuN", sorted by core id);
//   - "X" complete events on a core's track for every running slice, the
//     thread name + id as the event name, args carrying tid, the wait that
//     preceded the slice, and whether it began at a wakeup;
//   - "i" instant events for wakeups (on the target core's track),
//     migrations (destination track, args.from), steals (stealer track,
//     args.victim);
//   - "C" counter events replaying probe series handed in by the caller.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// SchemaName identifies the export in otherData.schema.
const SchemaName = "schedbattle/timeline/v1"

// CounterTrack is one counter series for the export: [t_us, value] points
// in time order (exactly the scenario report's series shape).
type CounterTrack struct {
	Name   string
	Points [][2]float64
}

// AppendPerfetto renders the timeline as trace-event JSON appended to buf,
// counters after the recorded events; pass nil when none apply. Valid
// after Close.
func (r *Recorder) AppendPerfetto(buf []byte, counters []CounterTrack) []byte {
	// Size the output once from the event counts instead of doubling up to
	// it. The per-event allowances are what a minute-long run's events
	// render to with short thread names; a longer export regrows as before.
	nPoints := 0
	for _, ct := range counters {
		nPoints += len(ct.Points)
	}
	b := slices.Grow(buf, 256+160*len(r.m.Cores)+144*r.ev.slices+104*(r.ev.n-r.ev.slices)+88*nPoints)
	b = append(b, `{"displayTimeUnit":"ms","otherData":{"schema":"`+SchemaName+`"},"traceEvents":[`...)
	first := true
	sep := func() {
		if !first {
			b = append(b, ',', '\n')
		} else {
			b = append(b, '\n')
		}
		first = false
	}

	sep()
	b = append(b, `{"ph":"M","pid":0,"name":"process_name","args":{"name":"schedbattle"}}`...)
	nCores := len(r.m.Cores)
	for c := 0; c < nCores; c++ {
		sep()
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `,"name":"thread_name","args":{"name":"cpu`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `"}}`...)
		sep()
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `,"name":"thread_sort_index","args":{"sort_index":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `}}`...)
	}

	for _, blk := range r.ev.blocks {
		for i := range blk {
			ev := &blk[i]
			sep()
			tid := ev.tid
			name := ""
			if tid >= 1 && int(tid) <= len(r.st) && r.st[tid-1].th != nil {
				name = r.st[tid-1].th.Name
			}
			switch ev.kind {
			case evSlice:
				b = append(b, `{"ph":"X","pid":0,"tid":`...)
				b = strconv.AppendInt(b, int64(ev.core), 10)
				b = append(b, `,"ts":`...)
				b = appendUS(b, ev.t)
				b = append(b, `,"dur":`...)
				b = appendUS(b, ev.dur)
				b = append(b, `,"name":"`...)
				b = appendJSONEscaped(b, name)
				b = append(b, " T"...)
				b = strconv.AppendInt(b, int64(tid), 10)
				b = append(b, `","args":{"tid":`...)
				b = strconv.AppendInt(b, int64(tid), 10)
				b = append(b, `,"wait_us":`...)
				b = appendUS(b, ev.wait)
				b = append(b, `,"from_wake":`...)
				b = strconv.AppendBool(b, ev.fromWake)
				b = append(b, `}}`...)
			case evWake, evMigrate, evSteal:
				kind, otherKey := "wake", "origin"
				switch ev.kind {
				case evMigrate:
					kind, otherKey = "migrate", "from"
				case evSteal:
					kind, otherKey = "steal", "victim"
				}
				b = append(b, `{"ph":"i","s":"t","pid":0,"tid":`...)
				b = strconv.AppendInt(b, int64(ev.core), 10)
				b = append(b, `,"ts":`...)
				b = appendUS(b, ev.t)
				b = append(b, `,"name":"`...)
				b = append(b, kind...)
				b = append(b, `","args":{"tid":`...)
				b = strconv.AppendInt(b, int64(tid), 10)
				b = append(b, `,"`...)
				b = append(b, otherKey...)
				b = append(b, `":`...)
				b = strconv.AppendInt(b, int64(ev.other), 10)
				b = append(b, `}}`...)
			}
		}
	}

	for _, ct := range counters {
		for _, p := range ct.Points {
			sep()
			b = append(b, `{"ph":"C","pid":0,"ts":`...)
			b = strconv.AppendFloat(b, p[0], 'g', -1, 64)
			b = append(b, `,"name":`...)
			b = appendJSONString(b, ct.Name)
			b = append(b, `,"args":{"value":`...)
			b = strconv.AppendFloat(b, p[1], 'g', -1, 64)
			b = append(b, `}}`...)
		}
	}
	b = append(b, "\n]}\n"...)
	return b
}

// appendUS appends ns nanoseconds as microseconds, byte for byte what
// strconv.AppendFloat(b, float64(ns)/1e3, 'g', -1, 64) appends, from integer
// arithmetic. Below 1e15 ns the quotient's exact decimal has at most 15
// significant digits, which makes it the shortest decimal that reads back
// as that float64; spans beyond that (11 days) take the strconv route.
func appendUS(b []byte, ns int64) []byte {
	if ns < 0 || ns >= 1e15 {
		return strconv.AppendFloat(b, float64(ns)/1e3, 'g', -1, 64)
	}
	if ns < 1e9 { // below 1e6 µs shortest-'g' is plain decimal
		b = strconv.AppendInt(b, ns/1e3, 10)
		if frac := ns % 1e3; frac != 0 {
			b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
			for b[len(b)-1] == '0' {
				b = b[:len(b)-1]
			}
		}
		return b
	}
	// d[.ddd]e+XX: the digits of ns less trailing zeros, exponent digits-4.
	start := len(b)
	b = strconv.AppendInt(b, ns, 10)
	exp := len(b) - start - 4
	for b[len(b)-1] == '0' {
		b = b[:len(b)-1]
	}
	if len(b) > start+1 {
		b = append(b, 0)
		copy(b[start+2:], b[start+1:])
		b[start+1] = '.'
	}
	return append(b, 'e', '+', byte('0'+exp/10), byte('0'+exp%10))
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	return append(appendJSONEscaped(append(b, '"'), s), '"')
}

// appendJSONEscaped appends s as the inside of a JSON string literal.
// ASCII control characters, quotes, and backslashes are escaped; everything
// else passes through byte-for-byte (names are UTF-8 already).
func appendJSONEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// TraceEvent is one decoded trace event.
type TraceEvent struct {
	Ph    string         `json:"ph"`
	Name  string         `json:"name"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Trace is a decoded trace-event document.
type Trace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Schema string `json:"schema"`
	} `json:"otherData"`
	Events []TraceEvent `json:"traceEvents"`
}

// DecodeTrace parses and shape-checks a trace-event JSON document: the
// envelope must carry traceEvents, and every event must have a known phase
// with sane timestamps — the contract ui.perfetto.dev's legacy JSON
// importer needs. This is the validator CI's timeline smoke and the golden
// test run exports through.
func DecodeTrace(data []byte) (*Trace, error) {
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("timeline: decoding trace JSON: %w", err)
	}
	if tr.Events == nil {
		return nil, fmt.Errorf("timeline: trace has no traceEvents array")
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Ph {
		case "M":
			if e.Name == "" {
				return nil, fmt.Errorf("timeline: event %d: metadata event without a name", i)
			}
		case "X":
			if e.Name == "" {
				return nil, fmt.Errorf("timeline: event %d: complete event without a name", i)
			}
			if e.TsUS < 0 || e.DurUS < 0 {
				return nil, fmt.Errorf("timeline: event %d: negative ts/dur", i)
			}
		case "i", "C":
			if e.TsUS < 0 {
				return nil, fmt.Errorf("timeline: event %d: negative ts", i)
			}
		default:
			return nil, fmt.Errorf("timeline: event %d: unknown phase %q", i, e.Ph)
		}
	}
	return &tr, nil
}
