package dtrace

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runSleeper alternates CPU bursts and timed sleeps forever — enough to
// exercise picks, wakes, steals, and migrations on FIFO.
type runSleeper struct {
	run, sleep time.Duration
	sleeping   bool
}

func (p *runSleeper) Next(ctx *sim.Ctx) sim.Op {
	p.sleeping = !p.sleeping
	if p.sleeping {
		return sim.Run(p.run)
	}
	return sim.Sleep(p.sleep)
}

// record runs the reference workload with a recorder and returns it
// closed. All tests share this fixture so goldens stay small.
func record(t *testing.T, opts Options) (*Recorder, *sim.Machine) {
	t.Helper()
	sched := sim.NewFIFO()
	m := sim.NewMachine(topo.Small(), sched, sim.Options{Seed: 11})
	r, err := Attach(m, opts)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for i := 0; i < 6; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(20 * time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return r, m
}

func TestRoundTrip(t *testing.T) {
	r, _ := record(t, Options{})
	data := r.Bytes()
	sum := r.Summary()
	if sum.Records == 0 || sum.Picks == 0 || sum.Wakes == 0 {
		t.Fatalf("empty trace: %+v", sum)
	}
	if sum.Dropped != 0 {
		t.Fatalf("unexpected drops: %+v", sum)
	}
	if int64(len(data)) != sum.Bytes {
		t.Fatalf("Bytes()=%d, Summary.Bytes=%d", len(data), sum.Bytes)
	}
	tr, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if uint64(len(tr.Recs)) != sum.Records {
		t.Fatalf("decoded %d records, summary says %d", len(tr.Recs), sum.Records)
	}
	last := int64(-1)
	var wakes int
	for i := range tr.Recs {
		rec := &tr.Recs[i]
		if rec.T < last {
			t.Fatalf("record %d: time went backwards (%d after %d)", i, rec.T, last)
		}
		last = rec.T
		if rec.Kind < KindPick || rec.Kind > KindSteal {
			t.Fatalf("record %d: bad kind %d", i, rec.Kind)
		}
		if rec.Kind == KindWake {
			wakes++
			if len(rec.Cand) == 0 {
				t.Fatalf("record %d: wake without placement candidates", i)
			}
		}
		if rec.Kind == KindPick && rec.Other != -1 {
			t.Fatalf("record %d: pick with other=%d", i, rec.Other)
		}
	}
	if wakes == 0 {
		t.Fatal("no wake records decoded")
	}
	// The offline replay of the headroom analyzer must agree with the
	// online accumulator exactly.
	online := r.Headroom()
	replay := ComputeHeadroom(tr, 0, 0)
	if online != replay {
		t.Fatalf("headroom online %+v != replay %+v", online, replay)
	}
	if online.Wakes == 0 || online.Attainable > online.Achieved {
		t.Fatalf("implausible headroom %+v", online)
	}
}

func TestDeterminism(t *testing.T) {
	r1, _ := record(t, Options{})
	r2, _ := record(t, Options{})
	if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
		t.Fatal("identical runs produced different traces")
	}
}

// TestDecodeColumnSubset: the recorder writes every column, but a stream
// whose header lists only the mandatory four and some of the rest still
// decodes, the absent columns reading as zero (Other as -1, no candidate
// set) and rendering as empty CSV fields.
func TestDecodeColumnSubset(t *testing.T) {
	hdr := `{"columns":[{"name":"t_ns","type":"i64"},{"name":"core","type":"i32"},{"name":"kind","type":"u8"},{"name":"thread","type":"i32"},{"name":"digest","type":"u64"}],"sample":1,"window":8}`
	b := fmt.Appendf(nil, "%s\n%s\n{\"records\":2,\"cands\":0}\n", Magic, hdr)
	b = appendI64s(b, []int64{5, 9})
	b = appendI32s(b, []int32{1, 0})
	b = append(b, uint8(KindPick), uint8(KindWake))
	b = appendI32s(b, []int32{7, 8})
	b = appendU64s(b, []uint64{0xabc, 0xdef})
	tr, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := []Rec{
		{T: 5, Core: 1, Kind: KindPick, Thread: 7, Other: -1, Digest: 0xabc},
		{T: 9, Core: 0, Kind: KindWake, Thread: 8, Other: -1, Digest: 0xdef},
	}
	if !reflect.DeepEqual(tr.Recs, want) {
		t.Fatalf("decoded %+v, want %+v", tr.Recs, want)
	}
	const wantCSV = "5,1,pick,7,,,0000000000000abc,\n9,0,wake,8,,,0000000000000def,\n"
	if got := string(tr.AppendCSV(nil, "")); got != wantCSV {
		t.Fatalf("CSV %q, want %q", got, wantCSV)
	}
}

func TestSampling(t *testing.T) {
	full, _ := record(t, Options{})
	sampled, _ := record(t, Options{Sample: 4})
	fs, ss := full.Summary(), sampled.Summary()
	if fs.Decisions != ss.Decisions {
		t.Fatalf("sampling changed the decision count: %d vs %d", fs.Decisions, ss.Decisions)
	}
	// Per-kind counts follow ceil(seen/4).
	wantPicks := (fs.Picks + 3) / 4
	if ss.Picks != wantPicks {
		t.Fatalf("sample=4 kept %d picks, want %d of %d", ss.Picks, wantPicks, fs.Picks)
	}
	if ss.Bytes >= fs.Bytes {
		t.Fatalf("sampled trace not smaller: %d vs %d bytes", ss.Bytes, fs.Bytes)
	}
}

func TestMaxBytesDropsWholeChunks(t *testing.T) {
	r, _ := record(t, Options{ring: 64, maxBytes: 8192})
	sum := r.Summary()
	if sum.Dropped == 0 {
		t.Fatalf("no drops despite 8 KiB cap: %+v", sum)
	}
	if sum.Bytes > 8192 {
		t.Fatalf("output %d bytes exceeds cap", sum.Bytes)
	}
	// The surviving prefix still decodes.
	tr, err := Decode(r.Bytes())
	if err != nil {
		t.Fatalf("Decode of capped trace: %v", err)
	}
	if uint64(len(tr.Recs)) != sum.Records-sum.Dropped {
		t.Fatalf("decoded %d records, want %d kept of %d", len(tr.Recs), sum.Records-sum.Dropped, sum.Records)
	}
}

// TestOfflineCoreDecisions pins the satellite contract directly at the
// sim layer: once a core is hot-unplugged, no pick fires on it and no
// wake targets it.
func TestOfflineCoreDecisions(t *testing.T) {
	sched := sim.NewFIFO()
	m := sim.NewMachine(topo.Small(), sched, sim.Options{Seed: 3})
	r, err := Attach(m, Options{})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for i := 0; i < 8; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 600 * time.Microsecond, sleep: 300 * time.Microsecond})
	}
	m.Run(5 * time.Millisecond)
	const victim = 1
	offAt := int64(m.Now())
	if !m.OfflineCore(victim) {
		t.Fatal("OfflineCore refused")
	}
	m.Run(15 * time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tr, err := Decode(r.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i := range tr.Recs {
		rec := &tr.Recs[i]
		if rec.T < offAt || rec.Core != victim {
			continue
		}
		if rec.Kind == KindPick || rec.Kind == KindWake {
			t.Fatalf("%v decision on offlined core %d at t=%d", rec.Kind, victim, rec.T)
		}
	}
}

func TestCSV(t *testing.T) {
	r, _ := record(t, Options{})
	tr, err := Decode(r.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	out := tr.AppendCSV([]byte(CSVHeader+"\n"), "")
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if lines[0] != CSVHeader {
		t.Fatalf("CSV header %q", lines[0])
	}
	if uint64(len(lines)-1) != r.Summary().Records {
		t.Fatalf("CSV rows %d != records %d", len(lines)-1, r.Summary().Records)
	}
	var sawWake bool
	for _, ln := range lines[1:] {
		f := strings.Split(ln, ",")
		if len(f) != 8 {
			t.Fatalf("CSV row has %d fields: %q", len(f), ln)
		}
		if f[2] == "wake" && strings.Contains(f[7], ":") {
			sawWake = true
		}
	}
	if !sawWake {
		t.Fatal("no wake row with rendered candidates")
	}
}

// TestHeadroomSynthetic checks the analyzer's arithmetic on a
// hand-built window: two wakes both crammed onto a loaded core while an
// idle one sat free.
func TestHeadroomSynthetic(t *testing.T) {
	tr := &Trace{Header: Header{Window: 4}}
	cands := []Candidate{{ID: 0, Key: 3}, {ID: 1, Key: 0}}
	tr.Recs = []Rec{
		{Kind: KindWake, Core: 0, Cand: cands},
		{Kind: KindWake, Core: 0, Cand: []Candidate{{ID: 0, Key: 4}, {ID: 1, Key: 0}}},
	}
	hr := ComputeHeadroom(tr, 0, 0)
	// Achieved: 3 + 4. Attainable: wake both onto core 1 → 0 + 1.
	if hr.Achieved != 7 || hr.Attainable != 1 {
		t.Fatalf("headroom %+v, want achieved=7 attainable=1", hr)
	}
	if hr.Pct < 85 || hr.Pct > 86 {
		t.Fatalf("pct %v, want 6/7", hr.Pct)
	}
	// Optimal placements yield zero headroom.
	tr.Recs = []Rec{
		{Kind: KindWake, Core: 1, Cand: cands},
		{Kind: KindWake, Core: 1, Cand: []Candidate{{ID: 0, Key: 3}, {ID: 1, Key: 1}}},
	}
	if hr := ComputeHeadroom(tr, 0, 0); hr.Pct != 0 {
		t.Fatalf("optimal schedule reported headroom %+v", hr)
	}
}

// TestGolden pins the dtrace/v1 header line and a small recorded window
// byte-for-byte. Regenerate with: go test ./internal/dtrace -run Golden -update
func TestGolden(t *testing.T) {
	r, _ := record(t, Options{ring: 32, Sample: 8})
	data := r.Bytes()
	path := filepath.Join("testdata", "small.dtrace")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(data, want) {
		i := 0
		for i < len(data) && i < len(want) && data[i] == want[i] {
			i++
		}
		t.Fatalf("trace diverges from golden at byte %d of %d (golden %d bytes)", i, len(data), len(want))
	}
	// The header line itself is part of the stable format surface.
	nl := bytes.IndexByte(data, '\n')
	hdr := data[nl+1:]
	hdr = hdr[:bytes.IndexByte(hdr, '\n')]
	const wantHdr = `{"columns":[{"name":"t_ns","type":"i64"},{"name":"core","type":"i32"},{"name":"kind","type":"u8"},{"name":"thread","type":"i32"},{"name":"other","type":"i32"},{"name":"wait_ns","type":"i64"},{"name":"digest","type":"u64"},{"name":"cand_len","type":"u16"},{"name":"cand_id","type":"i32"},{"name":"cand_key","type":"i64"}],"sample":8,"window":8}`
	if string(hdr) != wantHdr {
		t.Fatalf("header line changed:\n got %s\nwant %s", hdr, wantHdr)
	}
}
