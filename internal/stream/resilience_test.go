package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clmids/internal/faults"
	"clmids/internal/model"
	"clmids/internal/tuning"
)

// poisonScorer panics reproducibly whenever any input contains "POISON",
// and scores everything else 0.1 — the poison-line case quarantine exists
// for.
type poisonScorer struct {
	calls atomic.Int64
}

func (p *poisonScorer) Score(lines []string) ([]float64, error) {
	p.calls.Add(1)
	for _, l := range lines {
		if strings.Contains(l, "POISON") {
			panic("poison input")
		}
	}
	out := make([]float64, len(lines))
	for i := range out {
		out[i] = 0.1
	}
	return out, nil
}

// TestPoisonLineQuarantined: a reproducibly panicking input is isolated by
// bisection, quarantined, served the quarantine score — and the rest of
// the batch scores normally in the same Process call.
func TestPoisonLineQuarantined(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuarantineScore = 0.99
	sc := &poisonScorer{}
	det := NewDetector(sc, cfg)

	vs, err := det.Process([]Event{
		ev("a", 1, "ls"), ev("b", 1, "POISON"), ev("c", 1, "pwd"), ev("d", 1, "id"),
	})
	if err != nil {
		t.Fatalf("poisoned batch failed instead of quarantining: %v", err)
	}
	if len(vs) != 4 {
		t.Fatalf("got %d verdicts, want 4", len(vs))
	}
	for _, v := range vs {
		want := 0.1
		if v.Line == "POISON" {
			want = cfg.QuarantineScore
		}
		if v.LineScore != want {
			t.Fatalf("verdict for %q scored %v, want %v", v.Line, v.LineScore, want)
		}
	}
	st := det.Stats()
	if st.QuarantinedInputs != 1 {
		t.Fatalf("QuarantinedInputs = %d, want 1", st.QuarantinedInputs)
	}
	if st.ScorerPanics < 2 {
		t.Fatalf("ScorerPanics = %d, want >= 2 (batch + isolation)", st.ScorerPanics)
	}
	found := false
	for _, s := range st.QuarantineSample {
		found = found || strings.Contains(s, "POISON")
	}
	if !found {
		t.Fatalf("quarantine sample %q does not carry the poison line", st.QuarantineSample)
	}

	// The quarantined input must never reach the scorer again: same line,
	// same quarantine score, zero extra panics.
	before := sc.calls.Load()
	panics := st.ScorerPanics
	vs, err = det.Process([]Event{ev("b", 2, "POISON")})
	if err != nil || vs[0].LineScore != cfg.QuarantineScore {
		t.Fatalf("quarantined line rescored: %v %+v", err, vs)
	}
	st = det.Stats()
	if st.ScorerPanics != panics {
		t.Fatalf("quarantined line reached the scorer again (%d panics, had %d)", st.ScorerPanics, panics)
	}
	if st.QuarantineHits < 1 {
		t.Fatalf("QuarantineHits = %d, want >= 1", st.QuarantineHits)
	}
	if got := sc.calls.Load(); got != before {
		t.Fatalf("scorer called %d times for an all-quarantined batch", got-before)
	}
}

// TestQuarantineSurvivesAbortedBatch: quarantine knowledge is cumulative —
// a later batch failing with a plain error rolls sessions back but keeps
// the quarantine set and panic counters.
func TestQuarantineSurvivesAbortedBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuarantineScore = 0.5
	det := NewDetector(&poisonScorer{}, cfg)
	if _, err := det.Process([]Event{ev("a", 1, "POISON")}); err != nil {
		t.Fatal(err)
	}
	quarantined := det.Stats().QuarantinedInputs

	det.SwapScorer(&errScorer{}, "")
	if _, err := det.Process([]Event{ev("a", 2, "fine")}); err == nil {
		t.Fatal("errScorer batch succeeded")
	}
	if st := det.Stats(); st.QuarantinedInputs != quarantined {
		t.Fatalf("aborted batch changed QuarantinedInputs: %d -> %d", quarantined, st.QuarantinedInputs)
	}
}

// TestSubmitContextCancel: a Submit blocked on a full shard queue unblocks
// with the context's error when the deadline passes, without wedging the
// worker.
func TestSubmitContextCancel(t *testing.T) {
	sc := &slowScorer{gate: make(chan struct{})}
	det := NewDetector(sc, DefaultConfig())
	svc := NewService(det, ServiceConfig{QueueRequests: 1, BatchEvents: 1})
	var once sync.Once
	release := func() { once.Do(func() { close(sc.gate) }) }
	defer svc.Close()
	defer release()

	// First submit occupies the worker (blocked in Score), the next fills
	// the queue; both answered after the gate opens.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := svc.Submit([]Event{ev("u", int64(i), "x")}); err != nil {
				t.Errorf("pre-filled submit %d: %v", i, err)
			}
		}(i)
	}
	waitForQueueDepth(t, svc, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := svc.SubmitContext(ctx, []Event{ev("u", 9, "y")}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked SubmitContext returned %v, want DeadlineExceeded", err)
	}
	release()
	wg.Wait()
}

// TestCloseUnblocksBlockedSubmit is the shutdown-leak regression test: a
// producer blocked on a full shard queue during Close must unblock with
// ErrClosed, while every request accepted before Close still gets its
// verdicts.
func TestCloseUnblocksBlockedSubmit(t *testing.T) {
	sc := &slowScorer{gate: make(chan struct{})}
	det := NewDetector(sc, DefaultConfig())
	svc := NewService(det, ServiceConfig{QueueRequests: 1, BatchEvents: 1})

	var accepted sync.WaitGroup
	for i := 0; i < 2; i++ {
		accepted.Add(1)
		go func(i int) {
			defer accepted.Done()
			if _, err := svc.Submit([]Event{ev("u", int64(i), "x")}); err != nil {
				t.Errorf("accepted submit %d lost: %v", i, err)
			}
		}(i)
	}
	waitForQueueDepth(t, svc, 1)

	blocked := make(chan error, 1)
	go func() {
		_, err := svc.Submit([]Event{ev("u", 9, "y")})
		blocked <- err
	}()
	// Give the blocked producer time to actually park on the full queue.
	time.Sleep(20 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()

	select {
	case err := <-blocked:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Submit returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit still blocked 5s after Close — shutdown leak")
	}

	close(sc.gate) // let the drain finish
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not finish draining")
	}
	accepted.Wait()
	if _, err := svc.Submit([]Event{ev("u", 10, "z")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
}

// TestShedPolicy: with shed configured, a full queue rejects immediately
// with ErrOverloaded instead of blocking, and the rejection is counted.
func TestShedPolicy(t *testing.T) {
	sc := &slowScorer{gate: make(chan struct{})}
	det := NewDetector(sc, DefaultConfig())
	svc := NewService(det, ServiceConfig{
		QueueRequests: 1, BatchEvents: 1, Overload: OverloadShed,
	})
	defer svc.Close()

	var accepted sync.WaitGroup
	for i := 0; i < 2; i++ {
		accepted.Add(1)
		go func(i int) {
			defer accepted.Done()
			if _, err := svc.Submit([]Event{ev("u", int64(i), "x")}); err != nil {
				t.Errorf("accepted submit %d: %v", i, err)
			}
		}(i)
	}
	waitForQueueDepth(t, svc, 1)

	done := make(chan error, 1)
	go func() {
		_, err := svc.Submit([]Event{ev("u", 9, "y")})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overloaded Submit returned %v, want ErrOverloaded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shed policy blocked instead of rejecting")
	}
	if st := svc.Stats(); st.ShedRequests < 1 || st.OverloadPolicy != "shed" {
		t.Fatalf("shed not surfaced in stats: %+v", st)
	}
	close(sc.gate)
	accepted.Wait()
}

// precScorer is a Replicable PrecisionSwitcher stub: it scores every line
// with a constant and remembers which precision it serves at, so
// degradation tests can watch shifts without a real model. The gate
// (shared by every replica and precision variant) lets tests hold a batch
// in flight.
type precScorer struct {
	prec  model.Precision
	gate  *faults.Gate // nil = never blocks
	score float64
}

func (p *precScorer) Score(lines []string) ([]float64, error) {
	if p.gate != nil {
		p.gate.Wait()
	}
	out := make([]float64, len(lines))
	for i := range out {
		out[i] = p.score
	}
	return out, nil
}

func (p *precScorer) Replicate() tuning.Scorer { c := *p; return &c }

func (p *precScorer) Precision() model.Precision { return p.prec }

func (p *precScorer) AtPrecision(prec model.Precision) (tuning.Scorer, error) {
	if !prec.Valid() {
		return nil, fmt.Errorf("bad precision %q", prec)
	}
	c := *p
	c.prec = prec
	return &c, nil
}

// TestDegradePolicyDownshiftAndRecover drives the hysteresis clock
// deterministically through PollOverload: sustained saturation downshifts
// the shard to int8 in one step, further saturation has nowhere lower to
// go, sustained calm shifts it back to float64, and verdicts keep flowing
// throughout.
func TestDegradePolicyDownshiftAndRecover(t *testing.T) {
	gate := &faults.Gate{}
	gate.Hold()
	sc := &precScorer{prec: model.PrecisionFloat64, gate: gate, score: 0.1}
	det := NewDetector(sc, DefaultConfig())
	cfg := ServiceConfig{
		QueueRequests: 2, BatchEvents: 1,
		Overload: OverloadDegrade,
		// The monitor's own ticks must not interfere with the synthetic
		// clock below.
		OverloadTick: time.Hour,
	}
	cfg = cfg.withDefaults()
	svc := NewService(det, cfg)
	defer svc.Close()

	// saturate holds one request in flight (blocked on the gate) with two
	// queued behind it, sweeps across a full DegradeAfter stretch, then
	// releases the gate and waits for the requests to finish.
	saturate := func(from int) {
		t.Helper()
		gate.Hold()
		var wg sync.WaitGroup
		for i := from; i < from+3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := svc.Submit([]Event{ev("u", int64(i), "x")}); err != nil {
					t.Errorf("submit %d: %v", i, err)
				}
			}(i)
		}
		waitForQueueDepth(t, svc, 2)
		t0 := time.Now()
		svc.PollOverload(t0) // arms the overload clock
		swept := make(chan struct{})
		go func() {
			// A sweep that decides to downshift blocks in SwapScorer until
			// the in-flight batch commits.
			svc.PollOverload(t0.Add(cfg.DegradeAfter))
			close(swept)
		}()
		time.Sleep(10 * time.Millisecond)
		gate.Release()
		select {
		case <-swept:
		case <-time.After(5 * time.Second):
			t.Fatal("saturated sweep never completed")
		}
		wg.Wait()
	}

	saturate(0)
	st := svc.Stats()
	if st.DegradedShards != 1 || !st.Shards[0].Degraded {
		t.Fatalf("shard not degraded after sustained overload: %+v", st.Shards[0])
	}
	if st.Shards[0].Precision != string(model.PrecisionInt8) || st.Shards[0].Downshifts != 1 {
		t.Fatalf("downshift: precision %q downs %d, want int8/1",
			st.Shards[0].Precision, st.Shards[0].Downshifts)
	}

	// A calm sweep resets the overload clock, then a second saturated
	// stretch: int8 is the only step down, so nothing shifts.
	svc.PollOverload(time.Now())
	saturate(3)
	if st := svc.Stats(); st.Shards[0].Precision != string(model.PrecisionInt8) || st.Shards[0].Downshifts != 1 {
		t.Fatalf("second saturation: precision %q downs %d, want int8/1",
			st.Shards[0].Precision, st.Shards[0].Downshifts)
	}

	// Recovery: a calm stretch of RecoverAfter shifts back to native.
	t2 := time.Now()
	svc.PollOverload(t2)
	svc.PollOverload(t2.Add(cfg.RecoverAfter / 2))
	if st := svc.Stats(); !st.Shards[0].Degraded {
		t.Fatalf("recovered before RecoverAfter: %+v", st.Shards[0])
	}
	svc.PollOverload(t2.Add(cfg.RecoverAfter))
	st = svc.Stats()
	if st.Shards[0].Precision != string(model.PrecisionFloat64) || st.Shards[0].Degraded {
		t.Fatalf("recovery incomplete: %+v", st.Shards[0])
	}
	if st.Shards[0].Upshifts != 1 || st.Shards[0].Downshifts != 1 {
		t.Fatalf("shift counters %d down / %d up, want 1/1", st.Shards[0].Downshifts, st.Shards[0].Upshifts)
	}
	if st.DegradedShards != 0 {
		t.Fatalf("DegradedShards = %d after recovery", st.DegradedShards)
	}

	// The service still serves, at native precision.
	vs, err := svc.Submit([]Event{ev("u", 99, "done")})
	if err != nil || len(vs) != 1 || vs[0].LineScore != 0.1 {
		t.Fatalf("post-recovery submit: %v %+v", err, vs)
	}
}

// TestSwapScorerResetsDegradation: a hot reload under the degrade policy
// rebinds the degrade state to the incoming scorer — the new artifact serves at
// its native rung with fresh shift counters.
func TestSwapScorerResetsDegradation(t *testing.T) {
	sc := &precScorer{prec: model.PrecisionFloat64, score: 0.1}
	det := NewDetector(sc, DefaultConfig())
	cfg := ServiceConfig{QueueRequests: 2, BatchEvents: 1, Overload: OverloadDegrade, OverloadTick: time.Hour}
	cfg = cfg.withDefaults()
	svc := NewService(det, cfg)
	defer svc.Close()

	// Degrade by hand: force the hysteresis through two sweeps with the
	// queue artificially saturated via a held gate.
	gate := &faults.Gate{}
	gate.Hold()
	sc.gate = gate
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			svc.Submit([]Event{ev("u", int64(i), "x")})
		}(i)
	}
	waitForQueueDepth(t, svc, 2)
	t0 := time.Now()
	svc.PollOverload(t0)
	done := make(chan struct{})
	go func() { svc.PollOverload(t0.Add(cfg.DegradeAfter)); close(done) }()
	time.Sleep(10 * time.Millisecond)
	gate.Release()
	<-done
	wg.Wait()
	if st := svc.Stats(); !st.Shards[0].Degraded {
		t.Fatal("setup failed to degrade the shard")
	}

	next := &precScorer{prec: model.PrecisionFloat64, score: 0.2}
	if err := svc.SwapScorer(next, "v2"); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Shards[0].Degraded || st.Shards[0].Precision != string(model.PrecisionFloat64) {
		t.Fatalf("reload did not reset degradation: %+v", st.Shards[0])
	}
	if st.Shards[0].Downshifts != 0 {
		t.Fatalf("reload kept old shift counters: %+v", st.Shards[0])
	}
	vs, err := svc.Submit([]Event{ev("u", 50, "y")})
	if err != nil || vs[0].LineScore != 0.2 {
		t.Fatalf("new scorer not serving after reload: %v %+v", err, vs)
	}
}

// waitForQueueDepth spins until the single-shard service's queue holds n
// requests (the in-flight one does not count).
func waitForQueueDepth(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if svc.Stats().QueueDepth >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}
