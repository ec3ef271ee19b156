package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Trial is the declarative unit of experiment work: one machine, one
// workload, one measurement window, one extractor. Experiment drivers emit
// grids of trials (app × scheduler × topology × seed) instead of
// inline-looping, and RunTrials executes the grid — sequentially or across
// a worker pool — with results always in trial order.
//
// Execution contract: a fresh sim.Machine is built from Machine (plus
// kernel-noise threads when Machine.KernelNoise is set), Workload installs
// programs and probes, the simulation runs until Until holds or the Window
// deadline passes (just Run(Window) when Until is nil), and Extract reads
// the outcome. Extract receives the live machine and may advance it further
// for multi-phase measurements (e.g. "let fibo finish alone" in Table 2).
//
// Ownership: a grid hands its closures to RunTrials, which drops a trial's
// Workload, Until and Extract as soon as its outcome is in, so the machine
// they reach dies with the trial instead of with the grid. Drivers keep
// per-trial state only inside those closures (or in the outcome), and
// build a fresh slice for every run.
type Trial[T any] struct {
	// Name labels the trial ("MG/ule", "fig6/cfs"); it also keys derived
	// per-trial seeds, so it should be stable across runs.
	Name string
	// Machine configures the simulated machine. A zero Seed is replaced by
	// a seed derived from (base seed, Name); a non-zero Seed is kept
	// verbatim unless a global base seed perturbation is installed with
	// SetBaseSeed.
	Machine MachineConfig
	// Workload installs threads, applications, and probes on the fresh
	// machine. State shared with Until/Extract lives in the constructor's
	// closure.
	Workload func(m *sim.Machine)
	// Window is the absolute simulated-time deadline for the measured run.
	Window time.Duration
	// Until optionally ends the run early (checked at every scheduling
	// boundary, as sim.Machine.RunUntil does).
	Until func(m *sim.Machine) bool
	// Extract reads the trial's outcome once the window closed.
	Extract func(m *sim.Machine) T

	// CacheKey is the trial's content-addressed fingerprint, computed by
	// the emitting layer over everything the outcome depends on EXCEPT the
	// resolved seed (RunTrials folds that in after seed resolution — see
	// trialSeed's occurrence rules). The zero key marks the trial
	// uncacheable and exempt from grid dedup.
	CacheKey memo.Key
	// Encode/Decode serialize the outcome for the installed trial cache.
	// Both must be set for the cache to engage; the encoding must
	// round-trip T so that a cached result is indistinguishable from a
	// fresh one (byte-identical downstream reports).
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// Execute runs the trial body on the calling goroutine. The Machine seed
// must already be resolved; RunTrials does that for grid runs.
func (t Trial[T]) Execute() T {
	m := NewMachine(t.Machine)
	if d := TrialTimeout(); d > 0 {
		m.SetWallDeadline(time.Now().Add(d))
	}
	if t.Workload != nil {
		t.Workload(m)
	}
	if t.Until != nil {
		m.RunUntil(func() bool { return t.Until(m) }, t.Window)
	} else if t.Window > 0 {
		m.Run(t.Window)
	}
	var out T
	if t.Extract != nil {
		out = t.Extract(m)
	}
	return out
}

// baseSeed perturbs every trial seed when non-zero; see SetBaseSeed.
var baseSeed atomic.Int64

// SetBaseSeed installs a global seed perturbation for trial grids (the
// CLI's -seed flag). Zero — the default — keeps each driver's paper-tuned
// explicit seeds untouched, so outputs match the published reproduction.
// Any other value deterministically re-derives every trial's seed from
// (base, trial name), which is how repeat-trial variance studies get
// independent grids without touching the drivers.
func SetBaseSeed(s int64) { baseSeed.Store(s) }

// BaseSeed returns the installed perturbation (0 = none).
func BaseSeed() int64 { return baseSeed.Load() }

// trialSeed resolves the effective seed for a trial. occ is the occurrence
// index of the trial's name within its grid — 0 for unique names — so a
// named trial draws the same derived seed however the surrounding grid is
// composed (running fig2 alone or via fig1's two-kind grid must agree).
// Note the precedence: an explicit seed under the default base seed is
// returned verbatim — identical repeat trials then intentionally produce
// identical results (the reproduction parity path). Occurrence-based
// differentiation only applies on the derived path (no explicit seed, or a
// non-zero base seed).
func trialSeed(explicit int64, name string, occ int) int64 {
	base := baseSeed.Load()
	if explicit != 0 && base == 0 {
		return explicit
	}
	if explicit == 0 && base == 0 {
		// No explicit seed: derive a stable per-trial one rather than
		// letting every trial collapse onto NewMachine's default 42.
		base = 42
	}
	return runner.DeriveSeed(base^explicit, name, occ)
}

// trialCache holds the process-wide trial-result cache; nil (the default)
// disables memoization. Like SetBaseSeed/SetWorkers it is a set-once CLI
// knob read by every grid run.
var trialCache atomic.Pointer[memo.Cache]

// SetTrialCache installs (or, with nil, removes) the process-wide
// content-addressed trial-result cache consulted by RunTrials before
// executing any cacheable trial (the CLI's -cache/-no-cache flags).
func SetTrialCache(c *memo.Cache) { trialCache.Store(c) }

// TrialCache returns the installed cache, or nil when memoization is off.
func TrialCache() *memo.Cache { return trialCache.Load() }

// dedupedTrials counts grid cells served by another identical cell's
// execution (grid-level dedup, which works with or without a cache).
var dedupedTrials atomic.Uint64

// DedupedTrials returns the process-wide count of grid cells that were
// deduplicated onto an identical cell instead of simulating.
func DedupedTrials() uint64 { return dedupedTrials.Load() }

// executeCached runs one seed-resolved trial through the installed cache:
// hit decodes the stored bytes, miss simulates and stores the encoded
// result together with its simulate wall time (the basis of the cache's
// wall-saved accounting). With no cache installed, a zero key, or no
// codec, it is exactly Execute. key must already include the resolved
// seed (memo.Derive).
func executeCached[T any](t Trial[T], key memo.Key) T {
	c := trialCache.Load()
	if c == nil || key.IsZero() || t.Encode == nil || t.Decode == nil {
		return t.Execute()
	}
	if data, _, ok := c.Get(key); ok {
		out, err := t.Decode(data)
		if err == nil {
			return out
		}
		// The payload passed the cache's integrity checks but failed the
		// codec — a format drift the schema salt should have caught. Count
		// it and fall through to a fresh simulation.
		c.NoteCorrupt()
	}
	start := time.Now()
	out := t.Execute()
	cost := time.Since(start)
	if data, err := t.Encode(out); err == nil {
		c.Put(key, data, cost)
	}
	return out
}

// trialTimeout holds the per-trial wall-clock watchdog in nanoseconds;
// see SetTrialTimeout.
var trialTimeout atomic.Int64

// SetTrialTimeout arms a per-trial wall-clock watchdog (the CLI's
// -trial-timeout flag): every subsequently executed trial panics with
// *sim.WallDeadlineError once it has run that long on the host clock —
// which RunTrialsErr recovers into a per-trial error — instead of
// wedging the whole grid. Zero, the default, disables the watchdog.
func SetTrialTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	trialTimeout.Store(int64(d))
}

// TrialTimeout returns the armed per-trial watchdog (0 = disabled).
func TrialTimeout() time.Duration { return time.Duration(trialTimeout.Load()) }

// TrialError describes one failed trial of a grid: the trial's identity,
// the recovered panic value, and the stack captured at the panic site.
// Error renders the value only — stacks contain host-nondeterministic
// goroutine IDs and addresses, so anything destined for byte-compared
// reports must use Error, keeping Stack for stderr diagnostics.
type TrialError struct {
	Index int
	Name  string
	Value any
	Stack []byte
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %q failed: %v", e.Name, e.Value)
}

// RunTrials executes a trial grid on the shared worker pool (runner.Workers
// wide; the CLI's -jobs flag) and returns the outcomes in trial order.
// Every trial owns a private deterministic machine, so results are
// byte-identical whatever the pool width. A panicking trial still aborts
// the caller (after the rest of the grid completes); grids that must
// survive individual failures use RunTrialsErr.
//
// The caller hands over the trials' closures: once a trial's outcome is
// in (returned or panicked), and for a dedup duplicate before the grid
// starts, its Workload, Until and Extract are set to nil in trials. Name,
// Machine and the cache fields stay. Running the same slice twice
// therefore runs empty trials the second time; build the grid afresh.
func RunTrials[T any](trials []Trial[T]) []T {
	out, errs := RunTrialsErr(trials)
	if len(errs) > 0 {
		panic(errs[0])
	}
	return out
}

// release drops the trial's closures, and with them everything they
// captured: the instances, recorders and probes that reach its machine.
func (t *Trial[T]) release() { t.Workload, t.Until, t.Extract = nil, nil, nil }

// RunTrialsErr is RunTrials with per-trial failure isolation: a trial
// that panics (a scheduler invariant, a stuck program, the wall-clock
// watchdog) fails only its own slot, the rest of the grid completes, and
// the failures come back in trial order. out keeps the zero value at
// failed indices.
//
// Cacheable trials (non-zero CacheKey) are additionally deduplicated
// before dispatch: cells whose finalized fingerprints — CacheKey plus the
// resolved seed — are identical describe byte-identical simulations, so
// only the first runs and its outcome (or failure) fans back out to every
// requesting cell. Fanned-out outcomes alias one value; grid consumers
// treat results as read-only, which scenario reports already do. The
// trials' closures are released as RunTrials describes.
func RunTrialsErr[T any](trials []Trial[T]) ([]T, []*TrialError) {
	// Seeds key on the trial name; on the derived path (no explicit seed,
	// or a non-zero base seed) same-named trials in one grid fall back to
	// their occurrence number so they still draw distinct seeds.
	occ := make(map[string]int, len(trials))
	seeds := make([]int64, len(trials))
	keys := make([]memo.Key, len(trials))
	for i, t := range trials {
		seeds[i] = trialSeed(t.Machine.Seed, t.Name, occ[t.Name])
		occ[t.Name]++
		if !t.CacheKey.IsZero() {
			keys[i] = memo.Derive(t.CacheKey, seeds[i])
		}
	}

	// Group identical cells: primaries execute, duplicates alias their
	// primary's slot. Uncacheable trials are always their own primary.
	var (
		uniq      []int                      // primary trial indices, in grid order
		primaryOf = make([]int, len(trials)) // trial index -> position in uniq
		byKey     = map[memo.Key]int{}
	)
	for i := range trials {
		if !keys[i].IsZero() {
			if j, seen := byKey[keys[i]]; seen {
				primaryOf[i] = j
				dedupedTrials.Add(1)
				trials[i].release()
				continue
			}
			byKey[keys[i]] = len(uniq)
		}
		primaryOf[i] = len(uniq)
		uniq = append(uniq, i)
	}

	res, panics := runner.MapErr(len(uniq), func(j int) T {
		i := uniq[j]
		t := trials[i]
		defer trials[i].release()
		t.Machine.Seed = seeds[i]
		return executeCached(t, keys[i])
	})

	// Scatter primary outcomes and failures back to every requesting cell,
	// in trial order. A duplicate of a panicked primary reports the same
	// failure under its own index — its simulation would have panicked
	// identically.
	failed := make(map[int]*runner.TrialPanic, len(panics))
	for _, p := range panics {
		failed[p.Index] = p
	}
	out := make([]T, len(trials))
	var errs []*TrialError
	for i := range trials {
		j := primaryOf[i]
		if p, bad := failed[j]; bad {
			errs = append(errs, &TrialError{Index: i, Name: trials[i].Name, Value: p.Value, Stack: p.Stack})
			continue
		}
		out[i] = res[j]
	}
	return out, errs
}
