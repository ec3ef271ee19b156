package scenario

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/memo"
	"repro/internal/timeline"
)

// Trial-result memoization: every simulation here is a pure function of its
// inputs, so a sweep cell's TrialReport — out-of-band trace/timeline bytes
// included, where the run has them — can be content-addressed. This file
// computes the fingerprint and the serialization that internal/memo stores.
//
// The fingerprint is built in three stages, because the three input groups
// resolve at different times:
//
//  1. cachePrefix (once per Compile): everything cells share — the workload
//     mix, metric selection, series/trace/timeline/fault blocks, the
//     spec-level window, whether the spec is a sample grid (its trials are
//     metric vectors without streams, so they must not answer a plain run,
//     nor a plain run's them), and the format versions of every byte stream that rides
//     the report (the schema salt).
//  2. cellFingerprint (per cell): the sweep coordinates — cores, resolved
//     scheduler kind + decoded parameter overrides, effective scale, the
//     cell's seed-axis value — plus the process-wide knob trial outcomes
//     depend on: the CLI base-seed perturbation (it feeds open-loop arrival
//     streams directly, not just via the resolved machine seed).
//  3. core.RunTrialsErr folds in the RESOLVED machine seed (memo.Derive)
//     after occurrence-based seed resolution — same-named cells on the
//     derived-seed path draw distinct seeds, so compile time is too early
//     to finalize the key.
//
// Bump memoSaltVersion on any semantic change the referenced schema
// constants don't capture (workload installation order, seed derivation,
// window flooring, ...): every old cache entry then misses, which is the
// only safe failure mode.

// memoSaltVersion versions the fingerprint computation itself. v2: a sample
// grid's entry holds its metric vector only (compile.go, extract), so no
// full-report sample-grid entry written under v1 is ever served.
const memoSaltVersion = "schedbattle/trial-memo/v2"

// cacheSalt folds in the format version of everything a cached entry
// carries: the report schema, the dtrace stream format, the Perfetto
// timeline schema, and the envelope below.
var cacheSalt = memoSaltVersion + "|" + ReportSchema + "|" + dtrace.Magic + "|" + timeline.SchemaName

// cachePrefix hashes the cell-invariant part of the fingerprint. The sweep
// axes (cores, scales, schedulers, seeds) are deliberately absent — they are
// folded per cell, so identical cells reached through different sweep
// compositions (a battle at 3 or 5 replications, a -check re-run; a
// scenario run at one seed axis or another) share one fingerprint. A
// marshalling failure returns ok=false and the spec compiles uncacheable;
// json.Marshal of validated spec blocks cannot realistically fail, but a
// cache must never turn into an error source.
func (s *Spec) cachePrefix() (memo.Key, bool) {
	h := memo.NewHasher(cacheSalt).
		Str(s.Name).
		Bool(s.Machine.KernelNoise).
		Bool(s.sampleGrid).
		Int(int64(s.Window.D()))
	for _, part := range []any{s.Workload, s.Metrics, s.Series, s.Trace, s.Timeline, s.Faults} {
		b, err := json.Marshal(part)
		if err != nil {
			return memo.Key{}, false
		}
		h.Bytes(b)
	}
	return h.Sum(), true
}

// cellFingerprint folds one sweep cell's coordinates and the process-wide
// base-seed perturbation into the spec prefix. seed is the cell's
// seed-axis value, not the resolved machine seed — core folds that in
// after resolution.
func cellFingerprint(prefix memo.Key, cores int, rs resolvedSched, scale float64, seed int64) (memo.Key, bool) {
	uleJSON, err := json.Marshal(rs.ule)
	if err != nil {
		return memo.Key{}, false
	}
	cfsJSON, err := json.Marshal(rs.cfs)
	if err != nil {
		return memo.Key{}, false
	}
	return memo.NewHasher(cacheSalt).
		Key(prefix).
		Int(int64(cores)).
		Str(string(rs.kind)).
		Bytes(uleJSON).
		Bytes(cfsJSON).
		Float(scale).
		Int(seed).
		Int(core.BaseSeed()).
		Sum(), true
}

// The cached serialization of one trial outcome is three length-framed
// sections:
//
//	u64 LE | report JSON           (TrialReport; `json:"-"` drops the streams)
//	u64 LE | TraceData, verbatim
//	u64 LE | TimelineData, verbatim
//
// The report part round-trips through its own JSON form, whose float64
// fields survive exactly (encoding/json emits the shortest representation
// that parses back to the same value), so a decoded report marshals
// byte-identically to a fresh one. The out-of-band streams are framed raw
// rather than embedded in the JSON: the dtrace and Perfetto payloads
// dominate a traced trial's size, and base64ing them would grow every
// entry by a third and make warm-run decode cost scale with stream size
// instead of report size. A sample grid's trial has no streams and no
// section a metric does not read: its two stream sections are empty and
// the entry is the metric vector's JSON (~1 kB).

// encodeTrialReport serializes one trial outcome for the cache.
func encodeTrialReport(r TrialReport) ([]byte, error) {
	j, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 24+len(j)+len(r.TraceData)+len(r.TimelineData))
	frame := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		buf = append(buf, n[:]...)
		buf = append(buf, b...)
	}
	frame(j)
	frame(r.TraceData)
	frame(r.TimelineData)
	return buf, nil
}

// decodeTrialReport is encodeTrialReport's inverse. The returned report's
// stream fields alias the input buffer (and so, on a memory-cache hit, the
// cache's stored entry): trial results are read-only downstream, which the
// dedup fan-out already relies on.
func decodeTrialReport(b []byte) (TrialReport, error) {
	next := func() ([]byte, error) {
		if len(b) < 8 {
			return nil, fmt.Errorf("scenario: cache envelope truncated")
		}
		n := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if n > uint64(len(b)) {
			return nil, fmt.Errorf("scenario: cache envelope section overruns buffer")
		}
		sec := b[:n:n]
		b = b[n:]
		return sec, nil
	}
	j, err := next()
	if err != nil {
		return TrialReport{}, err
	}
	var r TrialReport
	if err := json.Unmarshal(j, &r); err != nil {
		return TrialReport{}, err
	}
	if r.TraceData, err = next(); err != nil {
		return TrialReport{}, err
	}
	if r.TimelineData, err = next(); err != nil {
		return TrialReport{}, err
	}
	if len(r.TraceData) == 0 {
		r.TraceData = nil
	}
	if len(r.TimelineData) == 0 {
		r.TimelineData = nil
	}
	return r, nil
}
