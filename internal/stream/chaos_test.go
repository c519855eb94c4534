package stream

// The chaos soak: seeded fault injectors (scorer errors, panics, a poison
// line, latency spikes, queue stalls) drive the full sharded service while
// concurrent producers keep submitting. The test asserts the three
// resilience invariants end to end: no accepted event is lost, nothing
// wedges (the test finishes), and once faults clear the service scores
// byte-identically to a never-faulted reference. CI runs this under -race.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clmids/internal/faults"
	"clmids/internal/tuning"
)

func TestChaosSoak(t *testing.T) {
	const (
		shards      = 4
		producers   = 6
		perProducer = 150
	)
	cfg := shardedTestConfig()

	ctl := faults.NewControl()
	gate := &faults.Gate{}
	base := gate.Wrap(&faults.Scorer{
		Inner: &hashScorer{}, Ctl: ctl, Seed: 42,
		ErrEvery: 7, PanicEvery: 31, PanicSubstring: "POISON",
		LatencyEvery: 29, Latency: time.Millisecond,
	})
	replicas := make([]tuning.Scorer, shards)
	replicas[0] = base
	for i := 1; i < shards; i++ {
		replicas[i] = base.(tuning.Replicable).Replicate()
	}
	sd, err := NewShardedDetector(replicas, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(sd, ServiceConfig{QueueRequests: 8, BatchEvents: 64})
	defer svc.Close()

	// Phase A — soak under fire. Each producer owns its users (one user per
	// Submit, so a failed batch is single-shard and rolls back completely:
	// retries never double-ingest). Submits that fail with an injected
	// error are retried until accepted; everything accepted must come back
	// with exactly one verdict per event.
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				user := fmt.Sprintf("chaos-%d-%d", p, i%3)
				line := fmt.Sprintf("cmd %d from %d", i, p)
				if p == 0 && i%40 == 7 {
					line = "run POISON payload" // reproducible panic → quarantine
				}
				evts := []Event{{User: user, Time: int64(1000 + i), Line: line}}
				for {
					vs, err := svc.Submit(evts)
					if err == nil {
						delivered.Add(int64(len(vs)))
						break
					}
					if !errors.Is(err, faults.ErrInjected) {
						t.Errorf("producer %d: non-injected failure: %v", p, err)
						return
					}
				}
			}
		}(p)
	}

	// Queue-stall injection: wedge every scorer a few times mid-soak; the
	// producers must ride it out through backpressure, not lose events.
	stallDone := make(chan struct{})
	go func() {
		defer close(stallDone)
		for i := 0; i < 3; i++ {
			gate.Hold()
			time.Sleep(5 * time.Millisecond)
			gate.Release()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	soakDone := make(chan struct{})
	go func() { wg.Wait(); close(soakDone) }()
	select {
	case <-soakDone:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak wedged: producers still blocked after 2m")
	}
	<-stallDone
	if t.Failed() {
		return
	}

	if got, want := delivered.Load(), int64(producers*perProducer); got != want {
		t.Fatalf("delivered %d verdicts, want %d — events lost", got, want)
	}
	st := svc.Stats()
	if st.ScorerPanics == 0 || st.QuarantinedInputs == 0 || ctl.Injected() == 0 {
		t.Fatalf("faults did not bite (panics %d, quarantined %d, injected %d) — soak proves nothing",
			st.ScorerPanics, st.QuarantinedInputs, ctl.Injected())
	}

	// Phase B — faults clear; fresh traffic must score byte-identically to
	// a reference detector that never saw a fault.
	ctl.Clear()
	ref := NewDetector(&hashScorer{}, cfg)
	for chunk := 0; chunk < 10; chunk++ {
		evts := make([]Event, 0, 20)
		for i := 0; i < 20; i++ {
			evts = append(evts, Event{
				User: fmt.Sprintf("fresh-%d", (chunk+i)%5),
				Time: int64(5000 + chunk*20 + i),
				Line: fmt.Sprintf("post-fault cmd %d.%d", chunk, i),
			})
		}
		got, err := svc.Submit(evts)
		if err != nil {
			t.Fatalf("post-fault submit failed: %v", err)
		}
		want, err := ref.Process(evts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: post-fault verdicts diverge from clean run", chunk)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("chunk %d: serialized verdicts not byte-identical", chunk)
		}
	}
}
