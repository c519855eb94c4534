package stream

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	sc := &poisonScorer{}
	det := NewDetector(sc, DefaultConfig())

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
			want = quarantineScore
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
	if err != nil || vs[0].LineScore != quarantineScore {
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
	det := NewDetector(&poisonScorer{}, DefaultConfig())
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
	svc := oneShardService(t, sc, ServiceConfig{QueueRequests: 1, BatchEvents: 1})
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
	svc := oneShardService(t, sc, ServiceConfig{QueueRequests: 1, BatchEvents: 1})

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
	sc := &slowScorer{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	svc := oneShardService(t, sc, ServiceConfig{
		QueueRequests: 1, BatchEvents: 1, Overload: OverloadShed,
	})
	defer svc.Close()
	// Deferred after Close, so it runs first: a failing check below must
	// not leave Close waiting on a worker held in Score.
	var release sync.Once
	defer release.Do(func() { close(sc.gate) })

	// The first request must be in Score, not queued, before the second
	// is sent; otherwise the second finds the queue full and is shed.
	var accepted sync.WaitGroup
	for i := 0; i < 2; i++ {
		accepted.Add(1)
		go func(i int) {
			defer accepted.Done()
			if _, err := svc.Submit([]Event{ev("u", int64(i), "x")}); err != nil {
				t.Errorf("accepted submit %d: %v", i, err)
			}
		}(i)
		if i == 0 {
			select {
			case <-sc.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("worker never entered Score")
			}
		}
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
	release.Do(func() { close(sc.gate) })
	accepted.Wait()
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
