package dtrace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeDtrace: a .dtrace file is read back from disk, so no bytes may
// panic Decode or exhaust memory on a lying chunk header, and every stream
// Decode accepts must render as CSV with one row per record. Seeded with
// the golden stream, which must be accepted, and cuts of it.
func FuzzDecodeDtrace(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "small.dtrace"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Decode(golden); err != nil {
		f.Fatalf("golden stream rejected: %v", err)
	}
	_, hdrEnd, err := DecodeHeader(golden)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{golden, golden[:hdrEnd], golden[:len(golden)/2], golden[:len(golden)-1], []byte(Magic + "\n"), nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		csv := tr.AppendCSV([]byte(CSVHeader+"\n"), "")
		if rows := bytes.Count(csv, []byte("\n")) - 1; rows != len(tr.Recs) {
			t.Fatalf("CSV has %d rows for %d records", rows, len(tr.Recs))
		}
	})
}
