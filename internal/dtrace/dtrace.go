// Package dtrace records per-decision scheduler traces: one compact
// record for every pick, wakeup-placement, migration, and steal decision
// the simulated scheduler makes, streamed into an allocation-bounded
// ring and encoded in the stable columnar dtrace/v1 format (columnar.go).
//
// The recorder is a pure sim.Observer of the engine's Pick, Wake,
// Migrate and Steal events: attaching it perturbs nothing, and a machine
// with no recorder attached pays only the engine's nil observer-table
// check. Candidate sets for pick decisions come from the scheduler's
// optional sim.PickExplainer capability; wake records instead carry the
// per-core load vector over the cores the woken thread was allowed on —
// the placement alternatives — which is what the headroom analyzer
// (headroom.go) searches over.
//
// Everything the recorder emits is a deterministic function of the
// simulated run and the options, so traces are byte-identical across
// worker-pool widths and across the wheel/heap event engines.
package dtrace

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
)

// Kind tags a decision record.
type Kind uint8

const (
	// KindPick: a core's PickNext chose a thread.
	KindPick Kind = 1
	// KindWake: SelectCore placed a thread waking from sleep/block.
	KindWake Kind = 2
	// KindMigrate: a balancer/stealer moved a runnable thread.
	KindMigrate Kind = 3
	// KindSteal: an idle core stole from a victim (the accompanying
	// migration is recorded too).
	KindSteal Kind = 4
)

var kindNames = [...]string{0: "?", KindPick: "pick", KindWake: "wake", KindMigrate: "migrate", KindSteal: "steal"}

// String returns the kind's CSV rendering.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Limits of the recorder's fixed-size structures.
const (
	defaultRing     = 4096
	defaultMaxBytes = 32 << 20
	defaultSample   = 1
	defaultWindow   = 8
	defaultBranch   = 4
	// maxCandPerRec bounds one record's candidate set; longer views are
	// truncated (deterministically — a prefix of the explainer's order).
	maxCandPerRec = 256
	// MaxWindow bounds the headroom search window (branch^window nodes).
	MaxWindow = 16
	// MaxBranch bounds the per-decision branching of the headroom search.
	MaxBranch = 8
)

// Options configures a Recorder. The zero value means: record every
// decision, all columns, 4096-record ring, 32 MiB output cap, in-memory
// output, headroom window 8 × branch 4.
type Options struct {
	// Sample records every Sample-th decision of each kind (1 = all).
	Sample int
	// Ring is the record capacity of the in-memory ring; a full ring
	// flushes one columnar chunk to the output.
	Ring int
	// MaxBytes caps the encoded output. Chunks that would exceed it are
	// dropped whole (counted in Summary.Dropped); the header always fits.
	MaxBytes int64
	// Columns selects optional column groups to record (see
	// ColumnGroups); nil = all. The mandatory t_ns/core/kind/thread
	// columns are always present.
	Columns []string
	// Window is the headroom search window in wake decisions (≤ MaxWindow).
	Window int
	// Branch is the headroom search's per-decision branching (≤ MaxBranch).
	Branch int
	// Sink receives the encoded trace as it is produced; nil buffers
	// in memory (Recorder.Bytes).
	Sink io.Writer
}

// ColumnGroups lists the optional column groups a trace block or Options
// may select: "other" (origin/victim core), "wait_ns" (decision latency
// input), "digest" (runqueue snapshot digest), "cand" (candidate sets).
func ColumnGroups() []string { return []string{"other", "wait_ns", "digest", "cand"} }

// normalize fills defaults and validates; returns the group inclusion set.
func (o *Options) normalize() (colMask, error) {
	if o.Sample == 0 {
		o.Sample = defaultSample
	}
	if o.Sample < 1 || o.Sample > 1_000_000 {
		return 0, fmt.Errorf("dtrace: sample %d out of range [1, 1000000]", o.Sample)
	}
	if o.Ring == 0 {
		o.Ring = defaultRing
	}
	if o.Ring < 16 || o.Ring > 1<<20 {
		return 0, fmt.Errorf("dtrace: ring %d out of range [16, 1048576]", o.Ring)
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = defaultMaxBytes
	}
	if o.MaxBytes < 4096 {
		return 0, fmt.Errorf("dtrace: maxBytes %d too small (min 4096)", o.MaxBytes)
	}
	if o.Window == 0 {
		o.Window = defaultWindow
	}
	if o.Window < 1 || o.Window > MaxWindow {
		return 0, fmt.Errorf("dtrace: window %d out of range [1, %d]", o.Window, MaxWindow)
	}
	if o.Branch == 0 {
		o.Branch = defaultBranch
	}
	if o.Branch < 1 || o.Branch > MaxBranch {
		return 0, fmt.Errorf("dtrace: branch %d out of range [1, %d]", o.Branch, MaxBranch)
	}
	mask := colMask(0)
	if o.Columns == nil {
		return maskAll, nil
	}
	for _, name := range o.Columns {
		g, ok := groupByName[name]
		if !ok {
			return 0, fmt.Errorf("dtrace: unknown column group %q (have %v)", name, ColumnGroups())
		}
		mask |= g
	}
	return mask, nil
}

// Summary reports what a finished Recorder saw and kept.
type Summary struct {
	// Decisions counts decision points observed, before sampling.
	Decisions uint64 `json:"decisions"`
	// Records counts records kept (after sampling, including dropped).
	Records uint64 `json:"records"`
	Picks   uint64 `json:"picks"`
	Wakes   uint64 `json:"wakes"`
	Migrate uint64 `json:"migrates"`
	Steals  uint64 `json:"steals"`
	// Dropped counts records discarded because MaxBytes was reached.
	Dropped uint64 `json:"dropped,omitempty"`
	// Bytes is the encoded output size (header + surviving chunks).
	Bytes int64 `json:"bytes"`
}

// Recorder captures decision records from a machine's events. Create with
// Attach; call Close after the run, then Bytes/Summary/Headroom.
//
// All hot-path state is preallocated at Attach: the SoA ring, the
// candidate arena, and the headroom window, whose candidate sets are sized
// to the machine's cores. Recording a decision allocates nothing, the
// headroom search it may set off included; flushing writes one encoded
// chunk to the sink through a reused scratch, or with no sink keeps it as
// one exactly-sized allocation (bounded by MaxBytes in total) that Bytes
// later joins. An AttachAccounting recorder holds the counters,
// loadBuf and hr only.
type Recorder struct {
	m    *sim.Machine
	opts Options
	cols colMask

	// SoA ring, capacity opts.Ring.
	tNS     []int64
	core    []int32
	kind    []uint8
	thread  []int32
	other   []int32
	waitNS  []int64
	digest  []uint64
	candLen []uint16
	n       int

	// Candidate arena backing the ring's candidate sets.
	candID  []int32
	candKey []int64

	enc encoder

	// Per-kind decision counters (pre-sampling), indexed by Kind.
	seen [5]uint64
	// Per-kind kept-record counters.
	kept    [5]uint64
	dropped uint64

	// Reused scratch.
	loadBuf []int
	pickBuf []sim.PickCandidate

	hr        headroomAcc
	explainer sim.PickExplainer
	closed    bool
}

// Attach validates opts, preallocates the recorder, registers it as an
// observer of m's decisions, and writes the dtrace/v1 header. Must be
// called before the run; pick candidate views are captured iff the
// machine's scheduler implements sim.PickExplainer.
func Attach(m *sim.Machine, opts Options) (*Recorder, error) {
	cols, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		m:       m,
		opts:    opts,
		cols:    cols,
		tNS:     make([]int64, 0, opts.Ring),
		core:    make([]int32, 0, opts.Ring),
		kind:    make([]uint8, 0, opts.Ring),
		thread:  make([]int32, 0, opts.Ring),
		other:   make([]int32, 0, opts.Ring),
		waitNS:  make([]int64, 0, opts.Ring),
		digest:  make([]uint64, 0, opts.Ring),
		candLen: make([]uint16, 0, opts.Ring),
		candID:  make([]int32, 0, opts.Ring*4+maxCandPerRec),
		candKey: make([]int64, 0, opts.Ring*4+maxCandPerRec),
		loadBuf: make([]int, len(m.Cores)),
		pickBuf: make([]sim.PickCandidate, 0, maxCandPerRec),
	}
	r.initHeadroom()
	if ex, ok := m.Scheduler().(sim.PickExplainer); ok {
		r.explainer = ex
	}
	r.enc.cols, r.enc.opts = cols, opts
	if err := r.enc.writeHeader(); err != nil {
		return nil, err
	}
	m.Observe(r, decisions...)
	return r, nil
}

// decisions are the event kinds a recorder observes.
var decisions = []sim.EventKind{sim.Pick, sim.Wake, sim.Migrate, sim.Steal}

// AttachAccounting attaches a recorder in accounting mode — what a
// replicated sample grid runs, where only metrics are read. Every count
// (Summary's decisions and kept records, by the same sampling rule) and the
// online headroom verdict are exactly what Attach would produce on the same
// run, but nothing is kept per record: no ring, candidate arena, digest,
// ExplainPick call, or encoder exists, so Bytes is nil and Summary.Bytes
// and Summary.Dropped read 0. The mode observes through its own type,
// accountant; Attach's streaming path never branches on it.
func AttachAccounting(m *sim.Machine, opts Options) (*Recorder, error) {
	if _, err := opts.normalize(); err != nil {
		return nil, err
	}
	r := &Recorder{m: m, opts: opts, loadBuf: make([]int, len(m.Cores))}
	r.initHeadroom()
	m.Observe((*accountant)(r), decisions...)
	return r, nil
}

// accountant is an accounting-mode Recorder's observer.
type accountant Recorder

// Observe is accounting mode's whole record path: sample, tally if kept,
// and feed a kept wake to the headroom search.
func (a *accountant) Observe(e sim.Event) {
	r := (*Recorder)(a)
	if r.count(kindOf[e.Kind]) && e.Kind == sim.Wake {
		r.loadBuf = r.m.RunnableCountsInto(r.loadBuf)
		r.hr.observe(int32(e.Core.ID), e.Thread, r.loadBuf)
	}
}

// kindOf maps the observed event kinds to record kinds.
var kindOf = [...]Kind{sim.Pick: KindPick, sim.Wake: KindWake, sim.Migrate: KindMigrate, sim.Steal: KindSteal}

// initHeadroom carves the headroom window's candidate arena: a wake's
// alternatives are the machine's cores, so a decision keeps at most one
// entry per core.
func (r *Recorder) initHeadroom() {
	width := min(len(r.m.Cores), maxCandPerRec)
	r.hr = newHeadroomAcc(r.opts.Window, r.opts.Branch, make([]Candidate, r.opts.Window*width))
}

// count samples a decision of kind k and tallies it if kept.
func (r *Recorder) count(k Kind) bool {
	kept := r.sampled(k)
	if kept {
		r.kept[k]++
	}
	return kept
}

// sampled counts a decision of kind k and reports whether it is kept.
func (r *Recorder) sampled(k Kind) bool {
	n := r.seen[k]
	r.seen[k] = n + 1
	return n%uint64(r.opts.Sample) == 0
}

// push appends one record to the ring; cands were already staged into the
// arena by the caller (nc of them).
func (r *Recorder) push(k Kind, t time.Duration, core, thread, other int32, wait int64, nc int) {
	r.kept[k]++
	r.tNS = append(r.tNS, int64(t))
	r.core = append(r.core, core)
	r.kind = append(r.kind, uint8(k))
	r.thread = append(r.thread, thread)
	r.other = append(r.other, other)
	r.waitNS = append(r.waitNS, wait)
	var dg uint64
	if r.cols&groupDigest != 0 {
		if k != KindWake { // Observe sampled a wake's depths at this same instant
			r.loadBuf = r.m.RunnableCountsInto(r.loadBuf)
		}
		dg = loadDigest(r.loadBuf)
	}
	r.digest = append(r.digest, dg)
	r.candLen = append(r.candLen, uint16(nc))
	r.n++
	if r.n == r.opts.Ring || len(r.candID) >= cap(r.candID)-maxCandPerRec {
		r.flush()
	}
}

// loadDigest hashes per-core runnable depths (FNV-1a 64).
func loadDigest(loads []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, n := range loads {
		v := uint64(n)
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// Observe records one decision. A queued thread's wait (Thread.QueueWait)
// is the latency input of picks, migrations and steals.
func (r *Recorder) Observe(e sim.Event) {
	c, t, now := e.Core, e.Thread, r.m.Now()
	switch e.Kind {
	case sim.Pick:
		if !r.sampled(KindPick) {
			return
		}
		nc := 0
		if r.cols&groupCand != 0 && r.explainer != nil {
			r.pickBuf = r.explainer.ExplainPick(c, r.pickBuf)
			for _, pc := range r.pickBuf {
				if pc.TID == int32(t.ID) {
					continue // the chosen thread is its own column
				}
				if nc == maxCandPerRec {
					break
				}
				r.candID = append(r.candID, pc.TID)
				r.candKey = append(r.candKey, pc.Key)
				nc++
			}
		}
		r.push(KindPick, now, int32(c.ID), int32(t.ID), -1, int64(t.QueueWait(now)), nc)
	case sim.Wake:
		// Headroom sees every sampled wake even when the cand columns are
		// not being written out, so feed it before the column check.
		if !r.sampled(KindWake) {
			return
		}
		// One pass stages the placement alternatives — every core the
		// thread was allowed on (online, affinity-permitting), keyed by its
		// runnable depth at decision time — for the analyzer and the cand
		// columns both.
		r.loadBuf = r.m.RunnableCountsInto(r.loadBuf)
		cands := r.hr.observe(int32(c.ID), t, r.loadBuf)
		nc := 0
		if r.cols&groupCand != 0 {
			for _, cd := range cands {
				r.candID = append(r.candID, cd.ID)
				r.candKey = append(r.candKey, cd.Key)
			}
			nc = len(cands)
		}
		// Wake latency input: time since the thread last gave up a core
		// (the whole sleep/block span; threads that never ran count from 0).
		wait := int64(now - t.LastRanAt)
		r.push(KindWake, now, int32(c.ID), int32(t.ID), int32(coreIDOr(e.From, -1)), wait, nc)
	case sim.Migrate:
		if r.sampled(KindMigrate) {
			r.push(KindMigrate, now, int32(c.ID), int32(t.ID), int32(e.From.ID), int64(t.QueueWait(now)), 0)
		}
	case sim.Steal:
		if r.sampled(KindSteal) {
			r.push(KindSteal, now, int32(c.ID), int32(t.ID), int32(e.From.ID), int64(t.QueueWait(now)), 0)
		}
	}
}

func coreIDOr(c *sim.Core, or int) int {
	if c == nil {
		return or
	}
	return c.ID
}

// flush encodes the ring as one chunk and resets it. A chunk that would
// push the output past MaxBytes is dropped whole and counted.
func (r *Recorder) flush() {
	if r.n == 0 {
		return
	}
	if !r.enc.writeChunk(r) {
		r.dropped += uint64(r.n)
	}
	r.tNS = r.tNS[:0]
	r.core = r.core[:0]
	r.kind = r.kind[:0]
	r.thread = r.thread[:0]
	r.other = r.other[:0]
	r.waitNS = r.waitNS[:0]
	r.digest = r.digest[:0]
	r.candLen = r.candLen[:0]
	r.candID = r.candID[:0]
	r.candKey = r.candKey[:0]
	r.n = 0
}

// Close flushes the final partial chunk and the headroom accumulator's
// partial window. The recorder keeps observing events if the machine runs
// further, but nothing more is encoded.
func (r *Recorder) Close() error {
	if r.closed {
		return r.enc.err
	}
	r.closed = true
	r.flush()
	r.hr.finish()
	return r.enc.err
}

// Bytes returns the encoded trace when buffering in memory (Options.Sink
// nil); nil otherwise. Valid after Close; repeated calls return the same
// slice.
func (r *Recorder) Bytes() []byte { return r.enc.bytes() }

// Summary reports the recorder's counters. Valid after Close.
func (r *Recorder) Summary() Summary {
	var total, decided uint64
	for _, n := range r.kept {
		total += n
	}
	for _, n := range r.seen {
		decided += n
	}
	return Summary{
		Decisions: decided,
		Records:   total,
		Picks:     r.kept[KindPick],
		Wakes:     r.kept[KindWake],
		Migrate:   r.kept[KindMigrate],
		Steals:    r.kept[KindSteal],
		Dropped:   r.dropped,
		Bytes:     r.enc.written,
	}
}

// Headroom returns the oracle headroom analysis over the recorded wake
// decisions. Valid after Close.
func (r *Recorder) Headroom() Headroom { return r.hr.result() }
