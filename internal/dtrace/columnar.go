package dtrace

// The dtrace/v1 columnar on-disk format. Self-describing and stable:
//
//	line 1:  "dtrace/v1\n"                     (magic)
//	line 2:  JSON header + "\n"                (column descriptors, options)
//	then, until EOF, chunks:
//	  JSON chunk header + "\n"                 {"records":N,"cands":M}
//	  one block per header column, in header order:
//	    fixed columns:    N × width bytes, little-endian
//	    cand_id/cand_key: M × width bytes, little-endian
//
// One chunk is one ring flush, which is what lets the recorder spill an
// unbounded run through a bounded ring. The recorder always writes the
// full column set, but the header's column list is the single source of
// truth for what a chunk contains: readers use it rather than assuming
// the full set.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Magic is the first line of every dtrace/v1 stream.
const Magic = "dtrace/v1"

// colDef describes one column of the canonical set, in canonical order.
type colDef struct {
	name  string
	typ   string // i64, u64, i32, u16, u8
	width int
	vary  bool // sized by the chunk's cand count, not its record count
}

// colDefs is the canonical column set. The recorder writes every column;
// the first four (t_ns, core, kind, thread) are mandatory, and a reader
// decodes any subset of the rest that a header lists.
var colDefs = []colDef{
	{"t_ns", "i64", 8, false},
	{"core", "i32", 4, false},
	{"kind", "u8", 1, false},
	{"thread", "i32", 4, false},
	{"other", "i32", 4, false},
	{"wait_ns", "i64", 8, false},
	{"digest", "u64", 8, false},
	{"cand_len", "u16", 2, false},
	{"cand_id", "i32", 4, true},
	{"cand_key", "i64", 8, true},
}

// mandatoryCols is the number of leading colDefs every header must list.
const mandatoryCols = 4

// ColumnDesc is one column entry of the self-describing header.
type ColumnDesc struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Header is the dtrace/v1 JSON header (line 2 of the stream).
type Header struct {
	Columns []ColumnDesc `json:"columns"`
	Sample  int          `json:"sample"`
	Window  int          `json:"window"`
}

// chunkHeader prefixes each chunk.
type chunkHeader struct {
	Records int `json:"records"`
	Cands   int `json:"cands"`
}

// encoder streams the columnar encoding to opts.Sink, or with none keeps
// it in memory, enforcing opts.maxBytes either way. In memory every write
// stays the exactly-sized slice it was encoded into — nothing is regrown
// or copied while the run records — and bytes joins them once.
type encoder struct {
	opts    Options
	chunks  [][]byte // writes not yet joined into out (no sink)
	out     []byte   // the joined stream, once bytes was asked for it
	scratch []byte   // the sink path's reused chunk buffer
	written int64
	err     error
}

// emit writes one encoded piece to the sink, or with none keeps b itself.
func (e *encoder) emit(b []byte) error {
	if e.opts.Sink == nil {
		e.chunks = append(e.chunks, b)
		e.written += int64(len(b))
		return nil
	}
	n, err := e.opts.Sink.Write(b)
	e.written += int64(n)
	if err != nil {
		e.err = err
	}
	return err
}

// bytes returns the in-memory stream (nil with a sink) as one slice: it
// joins the chunks into an exactly-sized slice and drops them, and until
// something more is written returns that slice again. The stream is joined
// at all because a Report's TraceData is one []byte.
func (e *encoder) bytes() []byte {
	if len(e.chunks) > 0 {
		out := append(make([]byte, 0, e.written), e.out...)
		for _, c := range e.chunks {
			out = append(out, c...)
		}
		e.out, e.chunks = out, nil
	}
	return e.out
}

// headerFor builds the self-describing header: every canonical column.
func headerFor(sample, window int) Header {
	h := Header{Sample: sample, Window: window, Columns: make([]ColumnDesc, len(colDefs))}
	for i, cd := range colDefs {
		h.Columns[i] = ColumnDesc{Name: cd.name, Type: cd.typ}
	}
	return h
}

func (e *encoder) writeHeader() error {
	hdr, err := json.Marshal(headerFor(e.opts.Sample, e.opts.Window))
	if err != nil {
		return err
	}
	return e.emit(fmt.Appendf(nil, "%s\n%s\n", Magic, hdr))
}

// writeChunk encodes the recorder's ring as one chunk, its columns in
// colDefs order. Returns false when the chunk was dropped (byte cap
// reached or a prior sink error).
func (e *encoder) writeChunk(r *Recorder) bool {
	if e.err != nil {
		return false
	}
	nc := len(r.candID)
	hdr := fmt.Sprintf("{\"records\":%d,\"cands\":%d}\n", r.n, nc)
	size := int64(len(hdr))
	for _, cd := range colDefs {
		if cd.vary {
			size += int64(nc * cd.width)
		} else {
			size += int64(r.n * cd.width)
		}
	}
	if e.written+size > e.opts.maxBytes {
		return false
	}
	var b []byte
	if e.opts.Sink == nil {
		b = make([]byte, 0, int(size)) // emit keeps it
	} else {
		if cap(e.scratch) < int(size) {
			e.scratch = make([]byte, 0, int(size))
		}
		b = e.scratch[:0]
	}
	b = append(b, hdr...)
	b = appendI64s(b, r.tNS)
	b = appendI32s(b, r.core)
	b = append(b, r.kind...)
	b = appendI32s(b, r.thread)
	b = appendI32s(b, r.other)
	b = appendI64s(b, r.waitNS)
	b = appendU64s(b, r.digest)
	b = appendU16s(b, r.candLen)
	b = appendI32s(b, r.candID)
	b = appendI64s(b, r.candKey)
	return e.emit(b) == nil
}

func appendI64s(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendU64s(b []byte, vs []uint64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func appendI32s(b []byte, vs []int32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func appendU16s(b []byte, vs []uint16) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	return b
}

// Candidate is one decoded candidate-set entry. For pick records ID is a
// thread id and Key the scheduler's ordering key; for wake records ID is
// an allowed core and Key its runnable depth at decision time.
type Candidate struct {
	ID  int32
	Key int64
}

// Rec is one decoded decision record. Columns absent from the trace
// decode as zero values (Other as -1).
type Rec struct {
	T      int64 // virtual time, ns
	Core   int32 // deciding / target core
	Kind   Kind
	Thread int32
	Other  int32 // wake origin, migrate source, steal victim; -1 = none
	WaitNS int64
	Digest uint64
	Cand   []Candidate
}

// Trace is a fully decoded dtrace/v1 stream.
type Trace struct {
	Header Header
	Recs   []Rec
}

// DecodeHeader parses and validates the magic and header lines,
// returning the header and the offset where chunks begin.
func DecodeHeader(data []byte) (Header, int, error) {
	var h Header
	rest, ok := bytes.CutPrefix(data, []byte(Magic+"\n"))
	if !ok {
		return h, 0, fmt.Errorf("dtrace: bad magic (want %q)", Magic)
	}
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return h, 0, fmt.Errorf("dtrace: truncated header")
	}
	if err := json.Unmarshal(rest[:nl], &h); err != nil {
		return h, 0, fmt.Errorf("dtrace: header: %w", err)
	}
	have := map[string]string{}
	for _, c := range h.Columns {
		if w := typeWidth(c.Type); w == 0 {
			return h, 0, fmt.Errorf("dtrace: column %q has unknown type %q", c.Name, c.Type)
		}
		have[c.Name] = c.Type
	}
	// Decode reads a known column at its canonical width, and the mandatory
	// ones bound a chunk's record count by its length.
	for i, cd := range colDefs {
		if typ, ok := have[cd.name]; ok && typ != cd.typ {
			return h, 0, fmt.Errorf("dtrace: column %q has type %q, want %q", cd.name, typ, cd.typ)
		} else if !ok && i < mandatoryCols {
			return h, 0, fmt.Errorf("dtrace: header lacks column %q", cd.name)
		}
	}
	return h, len(Magic) + 1 + nl + 1, nil
}

func typeWidth(typ string) int {
	switch typ {
	case "i64", "u64":
		return 8
	case "i32":
		return 4
	case "u16":
		return 2
	case "u8":
		return 1
	}
	return 0
}

// Decode parses a complete dtrace/v1 stream.
func Decode(data []byte) (*Trace, error) {
	h, off, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Header: h}
	body := data[off:]
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("dtrace: truncated chunk header")
		}
		var ch chunkHeader
		if err := json.Unmarshal(body[:nl], &ch); err != nil {
			return nil, fmt.Errorf("dtrace: chunk header: %w", err)
		}
		if ch.Records < 0 || ch.Cands < 0 {
			return nil, fmt.Errorf("dtrace: negative chunk counts %+v", ch)
		}
		body = body[nl+1:]
		// Size every column before building anything, so a chunk header
		// that claims more than the body holds is an error, not an
		// allocation.
		size := 0
		for _, c := range h.Columns {
			n, w := ch.Records, typeWidth(c.Type)
			if c.Name == "cand_id" || c.Name == "cand_key" {
				n = ch.Cands
			}
			if n > (len(body)-size)/w {
				return nil, fmt.Errorf("dtrace: truncated column %q (need %d×%d bytes, have %d)", c.Name, n, w, len(body)-size)
			}
			size += n * w
		}
		base := len(tr.Recs)
		for i := 0; i < ch.Records; i++ {
			rec := Rec{Other: -1}
			tr.Recs = append(tr.Recs, rec)
		}
		var candLen []byte
		var candID []int32
		var candKey []int64
		for _, c := range h.Columns {
			w := typeWidth(c.Type)
			n := ch.Records
			if c.Name == "cand_id" || c.Name == "cand_key" {
				n = ch.Cands
			}
			col := body[:n*w]
			body = body[n*w:]
			switch c.Name {
			case "t_ns":
				for i := 0; i < n; i++ {
					tr.Recs[base+i].T = int64(binary.LittleEndian.Uint64(col[i*8:]))
				}
			case "core":
				for i := 0; i < n; i++ {
					tr.Recs[base+i].Core = int32(binary.LittleEndian.Uint32(col[i*4:]))
				}
			case "kind":
				for i := 0; i < n; i++ {
					tr.Recs[base+i].Kind = Kind(col[i])
				}
			case "thread":
				for i := 0; i < n; i++ {
					tr.Recs[base+i].Thread = int32(binary.LittleEndian.Uint32(col[i*4:]))
				}
			case "other":
				for i := 0; i < n; i++ {
					tr.Recs[base+i].Other = int32(binary.LittleEndian.Uint32(col[i*4:]))
				}
			case "wait_ns":
				for i := 0; i < n; i++ {
					tr.Recs[base+i].WaitNS = int64(binary.LittleEndian.Uint64(col[i*8:]))
				}
			case "digest":
				for i := 0; i < n; i++ {
					tr.Recs[base+i].Digest = binary.LittleEndian.Uint64(col[i*8:])
				}
			case "cand_len":
				// Applied after cand_id/cand_key are read.
				candLen = col
			case "cand_id":
				candID = make([]int32, n)
				for i := range candID {
					candID[i] = int32(binary.LittleEndian.Uint32(col[i*4:]))
				}
			case "cand_key":
				candKey = make([]int64, n)
				for i := range candKey {
					candKey[i] = int64(binary.LittleEndian.Uint64(col[i*8:]))
				}
			default:
				// Unknown (future) column: skipped — the width made that safe.
			}
		}
		// Stitch the flat candidate arrays back onto the records.
		off := 0
		for i := base; i < len(tr.Recs); i++ {
			want := 0
			if candLen != nil {
				want = int(binary.LittleEndian.Uint16(candLen[(i-base)*2:]))
			}
			if off+want > len(candID) || len(candID) != len(candKey) {
				return nil, fmt.Errorf("dtrace: cand_len sum exceeds chunk cand count")
			}
			if candLen != nil {
				tr.Recs[i].Cand = make([]Candidate, want)
			}
			for j := 0; j < want; j++ {
				tr.Recs[i].Cand[j] = Candidate{ID: candID[off+j], Key: candKey[off+j]}
			}
			off += want
		}
		if candID != nil && off != len(candID) {
			return nil, fmt.Errorf("dtrace: chunk cand count %d does not match cand_len sum %d", len(candID), off)
		}
	}
	return tr, nil
}
