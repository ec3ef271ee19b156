package timeline

import (
	"encoding/json"
	"testing"
)

// FuzzDecodePerfetto: DecodeTrace validates trace files it did not write,
// so no bytes may panic it, and a document it accepts must be accepted
// again once re-encoded. Seeded with the fixture's export (with and
// without a counter track), which must be accepted, cuts of it, and the
// shapes TestDecodeTraceRejectsBadShapes names.
func FuzzDecodePerfetto(f *testing.F) {
	_, plain := record(f, nil)
	_, counted := record(f, []CounterTrack{{Name: "runq.core0", Points: [][2]float64{{0, 0}, {1000, 2}}}})
	for _, data := range [][]byte{plain, counted} {
		if _, err := DecodeTrace(data); err != nil {
			f.Fatalf("exported trace rejected: %v", err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, s := range []string{`{"traceEvents":[]}`, `{"traceEvents":[{"ph":"Z","ts":1}]}`,
		`{"traceEvents":[{"ph":"X","name":"x","ts":-1,"dur":1}]}`, `{`, ""} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		if _, err := DecodeTrace(again); err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
	})
}
