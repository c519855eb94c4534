// Package faults holds seeded, deterministic fault injectors for
// resilience drills: a scorer wrapper that errors, panics, or stalls on a
// schedule; a gate that wedges a shard's scoring mid-flight; and helpers
// that damage a bundle copy for /reload drills. Everything hides behind
// the existing tuning.Scorer surface, so the serving stack under test is
// the production stack — no test-only code paths inside the detector.
//
// Determinism: injectors decide from a shared call counter and a seed
// (call n misbehaves iff n % Every == Seed % Every), never from clocks or
// math/rand, so a chaos run replays exactly and a failure seed names the
// failing schedule. A shared Control arms and clears every injector
// wrapping it at once — fault phase, then clean phase, in one process.
package faults

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clmids/internal/tuning"
)

// ErrInjected marks a failure manufactured by an injector; drills assert
// with errors.Is that observed failures are theirs and not real bugs.
var ErrInjected = errors.New("faults: injected failure")

// Control arms and observes a set of injectors. The call counter is shared
// across every replica wrapping the same Control, so a schedule of "every
// 7th call" holds fleet-wide, not per shard.
type Control struct {
	active   atomic.Bool
	calls    atomic.Int64
	injected atomic.Int64
}

// NewControl returns an armed Control.
func NewControl() *Control {
	c := &Control{}
	c.active.Store(true)
	return c
}

// Arm (re)enables injection.
func (c *Control) Arm() { c.active.Store(true) }

// Clear disables injection: wrapped scorers pass through untouched from
// the next call on — the "faults clear" moment a soak test recovers from.
func (c *Control) Clear() { c.active.Store(false) }

// Active reports whether injection is enabled.
func (c *Control) Active() bool { return c.active.Load() }

// Calls returns the number of Score calls seen while armed.
func (c *Control) Calls() int64 { return c.calls.Load() }

// Injected returns the number of faults actually delivered.
func (c *Control) Injected() int64 { return c.injected.Load() }

// Scorer wraps an inner scorer with scheduled faults. The zero schedule
// injects nothing; fields combine (a call can both stall and then error).
// It forwards Replicable and CacheStatser to the inner scorer so a faulted
// scorer still fans out across shards and reports cache stats.
type Scorer struct {
	Inner tuning.Scorer
	Ctl   *Control
	// Seed offsets every schedule: two runs with different seeds fault
	// different calls, same seed faults the same ones.
	Seed int64
	// ErrEvery makes every ErrEvery-th call return ErrInjected (after the
	// inner scorer is skipped — the batch aborts and rolls back).
	ErrEvery int
	// PanicEvery makes every PanicEvery-th call panic, exercising the
	// detector's recover + bisect path.
	PanicEvery int
	// PanicSubstring panics whenever any input contains it — a poison line
	// that panics reproducibly, the quarantine trigger.
	PanicSubstring string
	// LatencyEvery stalls every LatencyEvery-th call for Latency before
	// scoring — the latency-spike injector.
	LatencyEvery int
	Latency      time.Duration
}

var _ tuning.Replicable = (*Scorer)(nil)

// hits reports whether schedule `every` fires on call n.
func (f *Scorer) hits(n int64, every int) bool {
	return every > 0 && n%int64(every) == f.Seed%int64(every)
}

// Score applies the armed schedules, then delegates to the inner scorer.
func (f *Scorer) Score(inputs []string) ([]float64, error) {
	if f.Ctl != nil && f.Ctl.Active() {
		n := f.Ctl.calls.Add(1)
		if f.hits(n, f.LatencyEvery) {
			f.Ctl.injected.Add(1)
			time.Sleep(f.Latency)
		}
		if f.PanicSubstring != "" {
			for _, in := range inputs {
				if strings.Contains(in, f.PanicSubstring) {
					f.Ctl.injected.Add(1)
					panic(fmt.Sprintf("faults: poison input %q", f.PanicSubstring))
				}
			}
		}
		if f.hits(n, f.PanicEvery) {
			f.Ctl.injected.Add(1)
			panic(fmt.Sprintf("faults: scheduled panic on call %d", n))
		}
		if f.hits(n, f.ErrEvery) {
			f.Ctl.injected.Add(1)
			return nil, fmt.Errorf("%w: scheduled error on call %d", ErrInjected, n)
		}
	}
	return f.Inner.Score(inputs)
}

// Replicate stamps out a replica wrapping a replica of the inner scorer
// (or the inner scorer itself when it is not Replicable — single-shard
// drills). All replicas share the Control and its call counter.
func (f *Scorer) Replicate() tuning.Scorer {
	inner := f.Inner
	if r, ok := inner.(tuning.Replicable); ok {
		inner = r.Replicate()
	}
	c := *f
	c.Inner = inner
	return &c
}

// CacheStats forwards the inner scorer's cache counters (zero without).
func (f *Scorer) CacheStats() tuning.CacheStats {
	if cs, ok := f.Inner.(tuning.CacheStatser); ok {
		return cs.CacheStats()
	}
	return tuning.CacheStats{}
}

// Gate wedges scoring on demand: Hold makes every wrapped Score call block
// until Release. It simulates a stalled dependency (saturated CPU, slow
// page-in) so drills can fill queues deterministically and watch the
// overload policy react.
type Gate struct {
	mu   sync.Mutex
	held chan struct{} // non-nil while held; closed by Release
}

// Hold closes the gate: subsequent Score calls block. No-op if held.
func (g *Gate) Hold() {
	g.mu.Lock()
	if g.held == nil {
		g.held = make(chan struct{})
	}
	g.mu.Unlock()
}

// Release opens the gate, unblocking every waiting Score call. No-op if
// open.
func (g *Gate) Release() {
	g.mu.Lock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
	g.mu.Unlock()
}

// Wait blocks while the gate is held.
func (g *Gate) Wait() {
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	if held != nil {
		<-held
	}
}

// gatedScorer blocks on the gate before every score.
type gatedScorer struct {
	inner tuning.Scorer
	gate  *Gate
}

// Wrap returns a scorer that waits for the gate before delegating. The
// wrapper replicates (replicas share the gate) and forwards cache stats,
// like Scorer.
func (g *Gate) Wrap(s tuning.Scorer) tuning.Scorer {
	return &gatedScorer{inner: s, gate: g}
}

var _ tuning.Replicable = (*gatedScorer)(nil)

func (gs *gatedScorer) Score(inputs []string) ([]float64, error) {
	gs.gate.Wait()
	return gs.inner.Score(inputs)
}

func (gs *gatedScorer) Replicate() tuning.Scorer {
	inner := gs.inner
	if r, ok := inner.(tuning.Replicable); ok {
		inner = r.Replicate()
	}
	return &gatedScorer{inner: inner, gate: gs.gate}
}

func (gs *gatedScorer) CacheStats() tuning.CacheStats {
	if cs, ok := gs.inner.(tuning.CacheStatser); ok {
		return cs.CacheStats()
	}
	return tuning.CacheStats{}
}

// CorruptBundleCopy copies the bundle directory at src to dst and flips
// one byte in the named section file — a bundle whose manifest checksums
// no longer match, for /reload rejection drills.
func CorruptBundleCopy(src, dst, section string) error {
	if err := copyDir(src, dst); err != nil {
		return err
	}
	path := filepath.Join(dst, section)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("faults: reading section to corrupt: %w", err)
	}
	if len(data) == 0 {
		return fmt.Errorf("faults: section %s is empty, nothing to corrupt", section)
	}
	data[len(data)/2] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}

// TruncateBundleCopy copies the bundle directory at src to dst and cuts
// the named section file in half — the torn-write case.
func TruncateBundleCopy(src, dst, section string) error {
	if err := copyDir(src, dst); err != nil {
		return err
	}
	path := filepath.Join(dst, section)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("faults: reading section to truncate: %w", err)
	}
	return os.WriteFile(path, data[:len(data)/2], 0o644)
}

// copyDir copies the regular files of one flat directory (bundle layout
// has no subdirectories).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("faults: reading bundle dir: %w", err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return fmt.Errorf("faults: creating bundle copy dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return fmt.Errorf("faults: copying bundle: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return fmt.Errorf("faults: copying bundle: %w", err)
		}
	}
	return nil
}
