package stream

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clmids/internal/corpus"
	"clmids/internal/tuning"
)

// hashScorer scores deterministically by line hash — independent instances
// on different shards return byte-identical scores for the same line, like
// scorer replicas over shared frozen weights do.
type hashScorer struct {
	calls atomic.Int64
}

func (h *hashScorer) Score(lines []string) ([]float64, error) {
	h.calls.Add(1)
	out := make([]float64, len(lines))
	for i, l := range lines {
		hh := fnv.New64a()
		hh.Write([]byte(l))
		out[i] = float64(hh.Sum64()%1000003) / 1000003
	}
	return out, nil
}

// shardedTestConfig exercises every session feature: multi-line context,
// decayed aggregation, both thresholds, short idle timeout.
func shardedTestConfig() Config {
	cfg := DefaultConfig()
	cfg.ContextWindow = 3
	cfg.Aggregation = AggDecay
	cfg.LineThreshold = 0.9
	cfg.SessionThreshold = 0.6
	cfg.IdleTimeout = 900
	cfg.MaxSessionLines = 8
	return cfg
}

// replayEvents materializes a few looping passes over a generated corpus
// as a single event stream with many interleaved users.
func replayEvents(t *testing.T, users, total int) []Event {
	t.Helper()
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 50
	ccfg.TestLines = 600
	ccfg.Users = users
	ccfg.Seed = 11
	_, test, err := corpus.Generate(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := corpus.NewReplayer(test, true)
	events := make([]Event, 0, total)
	for _, s := range rep.NextBatch(total) {
		events = append(events, Event{User: s.User, Time: s.Time, Line: s.Line})
	}
	if len(events) != total {
		t.Fatalf("replayer produced %d events, want %d", len(events), total)
	}
	return events
}

// TestShardedEquivalence is the tentpole invariant: a corpus.Replayer
// stream processed through a 4-shard detector yields byte-identical
// per-event verdicts and identical aggregate stats to the unsharded
// detector — sharding changes throughput, never results. (ScoredInputs is
// excluded: within-batch dedup is per shard, so the sharded figure may
// exceed the unsharded one when a line repeats across shards.)
func TestShardedEquivalence(t *testing.T) {
	events := replayEvents(t, 16, 1800)
	cfg := shardedTestConfig()

	single := NewDetector(&hashScorer{}, cfg)
	scorers := make([]tuning.Scorer, 4)
	for i := range scorers {
		scorers[i] = &hashScorer{}
	}
	sharded, err := NewShardedDetector(scorers, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const window = 257 // odd size: windows split mid-session
	for at := 0; at < len(events); at += window {
		end := at + window
		if end > len(events) {
			end = len(events)
		}
		want, err := single.Process(events[at:end])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Process(events[at:end])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d+%d: sharded verdict %+v, unsharded %+v", at, i, got[i], want[i])
			}
		}
	}

	wantSt, gotSt := single.Stats(), sharded.Stats()
	wantSt.ScoredInputs, gotSt.ScoredInputs = 0, 0
	if !reflect.DeepEqual(wantSt, gotSt) {
		t.Fatalf("stats diverge:\nsharded   %+v\nunsharded %+v", gotSt, wantSt)
	}
	if single.HighWater() != sharded.HighWater() {
		t.Fatalf("high water: sharded %d, unsharded %d", sharded.HighWater(), single.HighWater())
	}
	// The idle sweep evicts the same sessions either way.
	if w, g := single.EvictIdle(single.HighWater()), sharded.EvictIdle(sharded.HighWater()); w != g {
		t.Fatalf("EvictIdle: sharded %d, unsharded %d", g, w)
	}
}

// TestShardedServiceEquivalence runs the same stream through the
// asynchronous sharded service: Submit's partition/scatter must return
// verdicts in input order, identical to the unsharded detector.
func TestShardedServiceEquivalence(t *testing.T) {
	events := replayEvents(t, 16, 1500)
	cfg := shardedTestConfig()

	single := NewDetector(&hashScorer{}, cfg)
	scorers := make([]tuning.Scorer, 4)
	for i := range scorers {
		scorers[i] = &hashScorer{}
	}
	sharded, err := NewShardedDetector(scorers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(sharded, ServiceConfig{QueueRequests: 4, BatchEvents: 128})
	defer svc.Close()

	const window = 300
	for at := 0; at < len(events); at += window {
		end := at + window
		if end > len(events) {
			end = len(events)
		}
		want, err := single.Process(events[at:end])
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Submit(events[at:end])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d+%d: service verdict %+v, unsharded %+v", at, i, got[i], want[i])
			}
		}
	}
	st := svc.Stats()
	if st.Events != int64(len(events)) {
		t.Fatalf("service events %d, want %d", st.Events, len(events))
	}
	if len(st.Shards) != 4 {
		t.Fatalf("per-shard stats: %d entries, want 4", len(st.Shards))
	}
	var sum int64
	active := 0
	for _, ss := range st.Shards {
		sum += ss.Events
		active += ss.ActiveSessions
		if ss.QueueCapacity != 4 {
			t.Fatalf("shard %d queue capacity %d, want 4", ss.Shard, ss.QueueCapacity)
		}
	}
	if sum != st.Events || active != st.ActiveSessions {
		t.Fatalf("per-shard stats do not sum to totals: events %d/%d sessions %d/%d",
			sum, st.Events, active, st.ActiveSessions)
	}
	// 16 users over 4 shards with FNV keying: more than one shard busy.
	busy := 0
	for _, ss := range st.Shards {
		if ss.Events > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d shards saw traffic; routing is degenerate", busy)
	}
}

// gateScorer blocks until its gate closes, so tests can pile up queued
// requests on every shard before any scoring happens.
type gateScorer struct {
	gate   chan struct{}
	scored atomic.Int64
}

func (g *gateScorer) Score(lines []string) ([]float64, error) {
	<-g.gate
	g.scored.Add(int64(len(lines)))
	return make([]float64, len(lines)), nil
}

// TestShardedCloseDrainsAllShards: Close must answer every accepted
// request on every shard — no event is dropped at SIGTERM even with all
// shard workers mid-flight and queues full.
func TestShardedCloseDrainsAllShards(t *testing.T) {
	const shards = 4
	gate := make(chan struct{})
	scorers := make([]tuning.Scorer, shards)
	gates := make([]*gateScorer, shards)
	for i := range scorers {
		gates[i] = &gateScorer{gate: gate}
		scorers[i] = gates[i]
	}
	sharded, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(sharded, ServiceConfig{QueueRequests: 2, BatchEvents: 4})

	// 40 producers over 40 distinct users: every shard gets traffic, every
	// queue fills, some producers block on the full queues.
	const producers = 40
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", p)
			// Unique lines: within-batch dedup would otherwise collapse
			// coalesced requests and undercount scored inputs below.
			vs, err := svc.Submit([]Event{ev(user, int64(p), fmt.Sprintf("cmd %d", p))})
			if err == nil && len(vs) == 1 {
				delivered.Add(1)
			}
		}(p)
	}
	// Wait until the queues hold work (workers are gated), then close
	// while producers are still in flight.
	deadline := time.After(2 * time.Second)
	for svc.Stats().QueueDepth < shards {
		select {
		case <-deadline:
			t.Fatalf("queue depth %d never accumulated", svc.Stats().QueueDepth)
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	wg.Wait()
	svc.Close()

	if got := delivered.Load(); got != producers {
		t.Fatalf("delivered %d, want %d (drain must answer every accepted request)", got, producers)
	}
	var scored int64
	for _, g := range gates {
		scored += g.scored.Load()
	}
	if scored != producers {
		t.Fatalf("scored %d events across shards, want %d", scored, producers)
	}
	if st := svc.Stats(); st.Events != producers || st.QueueDepth != 0 {
		t.Fatalf("post-drain stats: %+v", st)
	}
	if _, err := svc.Submit([]Event{ev("late", 1, "x")}); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}

// TestShardedConcurrentIngest hammers a sharded service from many
// producers over many users (run with -race in CI): per-user verdict
// streams must stay ordered and complete.
func TestShardedConcurrentIngest(t *testing.T) {
	scorers := make([]tuning.Scorer, 4)
	for i := range scorers {
		scorers[i] = &hashScorer{}
	}
	sharded, err := NewShardedDetector(scorers, shardedTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(sharded, ServiceConfig{QueueRequests: 8, BatchEvents: 64})

	const producers = 8
	const perProducer = 30
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			user := fmt.Sprintf("worker-%d", p)
			for i := 0; i < perProducer; i++ {
				vs, err := svc.Submit([]Event{ev(user, int64(100*i), fmt.Sprintf("cmd %d %d", p, i))})
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				// One producer per user submitting serially: the session
				// must grow monotonically (capped by the sliding window).
				wantLines := i + 1
				if max := svc.Sharded().Config().MaxSessionLines; wantLines > max {
					wantLines = max
				}
				if vs[0].SessionLines != wantLines {
					t.Errorf("producer %d event %d: session lines %d, want %d",
						p, i, vs[0].SessionLines, wantLines)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	svc.Close()
	if st := svc.Stats(); st.Events != producers*perProducer {
		t.Fatalf("events %d, want %d", st.Events, producers*perProducer)
	}
}

// cacheStatScorer is a stub that exposes cache stats, to pin the /stats
// plumbing without training a model.
type cacheStatScorer struct {
	hashScorer
	stats tuning.CacheStats
}

func (c *cacheStatScorer) CacheStats() tuning.CacheStats { return c.stats }

// TestShardedServiceCacheStats: per-shard service stats surface each
// scorer's memo counters and hit rate.
func TestShardedServiceCacheStats(t *testing.T) {
	scorers := []tuning.Scorer{
		&cacheStatScorer{stats: tuning.CacheStats{Hits: 30, Misses: 10, Entries: 7}},
		&cacheStatScorer{stats: tuning.CacheStats{Hits: 0, Misses: 0, Entries: 0}},
	}
	sharded, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(sharded, ServiceConfig{})
	defer svc.Close()

	st := svc.Stats()
	if len(st.Shards) != 2 {
		t.Fatalf("%d shard stats, want 2", len(st.Shards))
	}
	if st.Shards[0].Cache == nil || st.Shards[0].Cache.Hits != 30 {
		t.Fatalf("shard 0 cache stats: %+v", st.Shards[0].Cache)
	}
	if got := st.Shards[0].CacheHitRate; got != 0.75 {
		t.Fatalf("shard 0 hit rate %g, want 0.75", got)
	}
	if st.Shards[1].Cache == nil || st.Shards[1].CacheHitRate != 0 {
		t.Fatalf("shard 1 cache stats: %+v rate %g", st.Shards[1].Cache, st.Shards[1].CacheHitRate)
	}
	// Plain scorers expose no cache: the field stays nil.
	plain := NewService(NewDetector(&hashScorer{}, DefaultConfig()), ServiceConfig{})
	defer plain.Close()
	if ps := plain.Stats(); ps.Shards[0].Cache != nil {
		t.Fatalf("plain scorer reported cache stats: %+v", ps.Shards[0].Cache)
	}
}

// TestShardedProcessShardError: one shard's scoring failure aborts the
// whole batch on every shard (two-phase commit), so a retry of the same
// events never double-ingests — the unsharded retry-safety contract.
func TestShardedProcessShardError(t *testing.T) {
	// The flaky scorer owns whichever users hash to shard 1; find a user
	// per shard.
	flaky := &flakyScorer{failing: true}
	scorers := []tuning.Scorer{&stubScorer{def: 0.25}, flaky}
	sharded, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ok0, bad1 string
	for i := 0; ok0 == "" || bad1 == ""; i++ {
		u := fmt.Sprintf("u%d", i)
		if shardOf(u, 2) == 0 {
			if ok0 == "" {
				ok0 = u
			}
		} else if bad1 == "" {
			bad1 = u
		}
	}
	events := []Event{ev(ok0, 1, "x"), ev(bad1, 2, "y")}
	if _, err := sharded.Process(events); err == nil {
		t.Fatal("shard error swallowed")
	}
	st := sharded.Stats()
	if st.ActiveSessions != 0 || st.SessionsStarted != 0 || st.ScoredInputs != 0 {
		t.Fatalf("batch not fully rolled back across shards: %+v", st)
	}
	if st.Events != 2 { // failed events still count as seen
		t.Fatalf("events %d, want 2", st.Events)
	}

	// The retry ingests every event exactly once.
	flaky.failing = false
	vs, err := sharded.Process(events)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v.SessionLines != 1 {
			t.Fatalf("retried event %d: session lines %d, want 1 (no double ingest)", i, v.SessionLines)
		}
	}
	if st := sharded.Stats(); st.ActiveSessions != 2 || st.Events != 4 {
		t.Fatalf("post-retry stats: %+v", st)
	}
}

// TestShardedConcurrentProcess: ShardedDetector.Process must be safe for
// concurrent use — overlapping multi-shard calls serialize via ascending
// lock order instead of deadlocking (ABBA on shard pipeline mutexes).
// Guarded by a watchdog so a reintroduced deadlock fails fast instead of
// hanging the suite.
func TestShardedConcurrentProcess(t *testing.T) {
	scorers := make([]tuning.Scorer, 2)
	for i := range scorers {
		scorers[i] = &hashScorer{}
	}
	sharded, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every call spans both shards, maximizing lock-order collisions.
	const goroutines = 8
	const rounds = 50
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < rounds; i++ {
				_, err := sharded.Process([]Event{
					ev(fmt.Sprintf("a%d", g), int64(i), "x"),
					ev(fmt.Sprintf("b%d", g), int64(i), "y"),
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	watchdog := time.After(30 * time.Second)
	for g := 0; g < goroutines; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog:
			t.Fatal("concurrent Process calls deadlocked")
		}
	}
	if st := sharded.Stats(); st.Events != goroutines*rounds*2 {
		t.Fatalf("events %d, want %d", st.Events, goroutines*rounds*2)
	}
}

// TestShardOfStable: routing is a pure function of the user key, in range,
// and spreads a realistic user population across shards.
func TestShardOfStable(t *testing.T) {
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("host-%04d", i)
		sh := shardOf(u, 8)
		if sh != shardOf(u, 8) {
			t.Fatalf("shardOf(%q) unstable", u)
		}
		if sh < 0 || sh >= 8 {
			t.Fatalf("shardOf(%q) = %d out of range", u, sh)
		}
		seen[sh]++
	}
	for sh := 0; sh < 8; sh++ {
		if seen[sh] == 0 {
			t.Fatalf("shard %d received no users out of 1000", sh)
		}
	}
	if shardOf("anything", 1) != 0 || shardOf("anything", 0) != 0 {
		t.Fatal("degenerate shard counts must route to 0")
	}
}
