package dtrace

import (
	"bytes"
	"testing"
)

// buffered is the number of encoded bytes the recorder holds in memory,
// joined or not, so that tests need not know how the stream is kept.
func (r *Recorder) buffered() int {
	n := len(r.enc.out)
	for _, c := range r.enc.chunks {
		n += len(c)
	}
	return n
}

// TestBytesMaterialisesOnce: the in-memory stream is joined by the first
// Bytes call and handed out as that one slice from then on, with the
// chunks it was joined from let go.
func TestBytesMaterialisesOnce(t *testing.T) {
	r, _ := record(t, Options{ring: 64})
	if len(r.enc.chunks) < 3 {
		t.Fatalf("%d chunks before Bytes: the fixture no longer flushes the ring", len(r.enc.chunks))
	}
	held := r.buffered()
	a := r.Bytes()
	b := r.Bytes()
	if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
		t.Fatalf("Bytes returned %d bytes at %p, then %d at %p", len(a), a, len(b), b)
	}
	if int64(len(a)) != r.Summary().Bytes || cap(a) != len(a) || len(a) != held {
		t.Fatalf("joined %d bytes (cap %d) of %d held, summary says %d", len(a), cap(a), held, r.Summary().Bytes)
	}
	if r.enc.chunks != nil || r.buffered() != len(a) {
		t.Fatalf("%d chunks and %d bytes held after joining %d", len(r.enc.chunks), r.buffered(), len(a))
	}
}

// TestSinkMatchesBytes: a run streamed to a Sink writes byte for byte what
// the same run buffered in memory returns, byte cap and drops included, and
// holds none of it.
func TestSinkMatchesBytes(t *testing.T) {
	for _, opts := range []Options{{}, {ring: 64}, {ring: 64, maxBytes: 8192}} {
		mem, _ := record(t, opts)
		var sink bytes.Buffer
		opts.Sink = &sink
		str, _ := record(t, opts)
		if !bytes.Equal(sink.Bytes(), mem.Bytes()) {
			t.Fatalf("%+v: sink got %d bytes, Bytes returns %d, or they differ", opts, sink.Len(), len(mem.Bytes()))
		}
		if mem.Summary() != str.Summary() {
			t.Fatalf("%+v: summaries differ: %+v in memory, %+v streamed", opts, mem.Summary(), str.Summary())
		}
		if str.Bytes() != nil || str.buffered() != 0 {
			t.Fatalf("%+v: a recorder with a sink holds %d bytes", opts, str.buffered())
		}
	}
}
