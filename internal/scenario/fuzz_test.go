package scenario

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// FuzzDecodeTrialReport: the cache entry decoder reads bytes from disk, so
// no input may panic it, and whatever it accepts must survive its own
// encoder — re-encoded and decoded again, the report marshals to the same
// JSON and carries the same streams. Seeded with a sample-grid entry, a
// plain entry carrying both streams, and truncated and overrunning frames.
func FuzzDecodeTrialReport(f *testing.F) {
	entry := func(sp *Spec) []byte {
		rep, err := sp.Run(0.05)
		if err != nil {
			f.Fatal(err)
		}
		b, err := encodeTrialReport(rep.Trials[0])
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	base := memoBaseSpec()
	grid, plain := entry(base.WithSeeds(base.Seeds)), entry(base)
	if g, err := decodeTrialReport(grid); err != nil || g.Trace != nil || len(g.Derived) == 0 {
		f.Fatalf("sample-grid seed: %v, trace %v, %d derived metrics", err, g.Trace != nil, len(g.Derived))
	}
	if p, err := decodeTrialReport(plain); err != nil || p.TraceData == nil || p.TimelineData == nil {
		f.Fatalf("plain seed: %v, %d trace and %d timeline bytes", err, len(p.TraceData), len(p.TimelineData))
	}
	overrun := bytes.Clone(plain)
	binary.LittleEndian.PutUint64(overrun, uint64(len(plain)))
	huge := bytes.Clone(grid)
	binary.LittleEndian.PutUint64(huge, 1<<63)
	for _, seed := range [][]byte{grid, plain, plain[:len(plain)/2], plain[:len(plain)-1], grid[:5], grid[:8], overrun, huge, nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeTrialReport(b)
		if err != nil {
			return
		}
		enc, err := encodeTrialReport(r)
		if err != nil {
			t.Fatalf("decoded report does not re-encode: %v", err)
		}
		r2, err := decodeTrialReport(enc)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := json.Marshal(r2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j, j2) {
			t.Fatalf("report JSON moved through a round trip:\n%s\n%s", j, j2)
		}
		if !bytes.Equal(r.TraceData, r2.TraceData) || !bytes.Equal(r.TimelineData, r2.TimelineData) {
			t.Fatalf("streams moved through a round trip: %d/%d trace, %d/%d timeline bytes",
				len(r.TraceData), len(r2.TraceData), len(r.TimelineData), len(r2.TimelineData))
		}
	})
}

// FuzzParseSpec: a spec file is user input, so no bytes may panic Parse or
// the validation behind it, and a spec Parse accepts must validate again
// unchanged. Seeded with every bundled spec and the test specs, all of
// which must be accepted, plus truncated and empty documents.
func FuzzParseSpec(f *testing.F) {
	entries, err := libraryFS.ReadDir("library")
	if err != nil {
		f.Fatal(err)
	}
	valid := [][]byte{[]byte(validSpec), []byte(gridSpec), []byte(faultSpecJSON), []byte(seriesSpec)}
	for _, e := range entries {
		data, err := libraryFS.ReadFile("library/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, data)
	}
	for _, data := range valid {
		if _, err := Parse("seed", data); err != nil {
			f.Fatalf("valid seed rejected: %v", err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, s := range []string{"", "{}", "[]", "null", `{"name": "x"}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse("fuzz", data)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation again: %v", err)
		}
	})
}
