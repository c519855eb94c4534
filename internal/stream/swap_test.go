package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"clmids/internal/corpus"
	"clmids/internal/tuning"
)

// genScorer scores every line with its generation number — a swap-visible
// constant — so a mixed batch is detectable as two distinct values in one
// Process result. Replicable: replicas share the generation (like real
// replicas share the frozen head).
type genScorer struct {
	gen float64
}

func (g *genScorer) Score(lines []string) ([]float64, error) {
	out := make([]float64, len(lines))
	for i := range out {
		out[i] = g.gen
	}
	return out, nil
}

func (g *genScorer) Replicate() tuning.Scorer { return &genScorer{gen: g.gen} }

// CacheStats makes the stub a CacheStatser so Service.Stats exercises its
// scorer probe — the read that must not race a concurrent SwapScorer.
func (g *genScorer) CacheStats() tuning.CacheStats { return tuning.CacheStats{} }

var (
	_ tuning.Replicable   = (*genScorer)(nil)
	_ tuning.CacheStatser = (*genScorer)(nil)
)

func TestSwapScorerVersionPropagation(t *testing.T) {
	scorers := make([]tuning.Scorer, 4)
	for i := range scorers {
		scorers[i] = &genScorer{gen: 1}
	}
	sd, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v := sd.ScorerVersion(); v != "" {
		t.Fatalf("fresh detector has version %q", v)
	}
	sd.SetScorerVersion("v1")
	for i := 0; i < sd.Shards(); i++ {
		if v := sd.Shard(i).ScorerVersion(); v != "v1" {
			t.Fatalf("shard %d version %q after SetScorerVersion", i, v)
		}
	}
	if err := sd.SwapScorer(&genScorer{gen: 2}, "v2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sd.Shards(); i++ {
		if v := sd.Shard(i).Stats().ScorerVersion; v != "v2" {
			t.Fatalf("shard %d stats version %q after SwapScorer", i, v)
		}
	}
	if got := sd.Stats().ScorerVersion; got != "v2" {
		t.Fatalf("aggregate stats version %q", got)
	}
	// The swap installed the new generation on every shard.
	svc := NewShardedService(sd, ServiceConfig{})
	defer svc.Close()
	vs, err := svc.Submit([]Event{ev("a", 1, "x"), ev("b", 1, "y"), ev("c", 1, "z"), ev("d", 1, "w")})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.LineScore != 2 {
			t.Fatalf("post-swap score %v, want 2", v.LineScore)
		}
	}
}

func TestSwapScorerRejectsNonReplicable(t *testing.T) {
	scorers := []tuning.Scorer{&stubScorer{}, &stubScorer{}}
	sd, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sd.SwapScorer(&stubScorer{}, "v"); err == nil {
		t.Fatal("non-replicable scorer accepted for a 2-shard swap")
	}
	// The failed swap left the old scorers in place.
	svc := NewShardedService(sd, ServiceConfig{})
	defer svc.Close()
	if _, err := svc.Submit([]Event{ev("a", 1, "x"), ev("b", 1, "y")}); err != nil {
		t.Fatalf("detector broken after failed swap: %v", err)
	}
}

// TestSwapScorerUnderLoad is the hot-reload acceptance test: a 4-shard
// service scores a Replayer stream from several producers while the scorer
// is swapped repeatedly, shard by shard. Every event must be scored (zero
// drops), every returned score must be one of the known generations, and
// no shard's part of a Submit may observe two generations — each shard's
// batch is one Detector.Process, and the swap lands between batches. Run
// under -race in CI.
func TestSwapScorerUnderLoad(t *testing.T) {
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 400
	ccfg.TestLines = 50
	train, _, err := corpus.Generate(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	scorers := make([]tuning.Scorer, 4)
	for i := range scorers {
		scorers[i] = &genScorer{gen: 1}
	}
	sd, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sd.SetScorerVersion("gen-1")
	svc := NewShardedService(sd, ServiceConfig{QueueRequests: 4, BatchEvents: 64})
	defer svc.Close()

	const (
		producers = 3
		batches   = 60
		batchSize = 25
		swaps     = 40
	)
	var (
		scored   atomic.Int64
		mixed    atomic.Int64
		badScore atomic.Int64
		maxGen   atomic.Int64
	)
	maxGen.Store(1)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each producer owns a disjoint user population (sharded
			// detectors require per-user time order, which concurrent
			// producers sharing users would violate).
			rep := corpus.NewReplayer(train, true)
			for b := 0; b < batches; b++ {
				samples := rep.NextBatch(batchSize)
				events := make([]Event, len(samples))
				for i, s := range samples {
					events[i] = Event{
						User: fmt.Sprintf("p%d-%s", p, s.User),
						Time: s.Time,
						Line: s.Line,
					}
				}
				vs, err := svc.Submit(events)
				if err != nil {
					t.Errorf("producer %d batch %d: %v", p, b, err)
					return
				}
				scored.Add(int64(len(vs)))
				var first [4]float64
				hi := maxGen.Load()
				for _, v := range vs {
					sh := shardOf(v.User, 4)
					if first[sh] == 0 {
						first[sh] = v.LineScore
					}
					if v.LineScore != first[sh] {
						mixed.Add(1)
					}
					if v.LineScore < 1 || v.LineScore > float64(hi) {
						badScore.Add(1)
					}
				}
			}
		}(p)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := int64(2); gen < 2+swaps; gen++ {
			// Raise the ceiling before the swap so a racing reader never
			// sees a score above the advertised max generation.
			maxGen.Store(gen)
			if err := sd.SwapScorer(&genScorer{gen: float64(gen)}, fmt.Sprintf("gen-%d", gen)); err != nil {
				t.Errorf("swap to gen %d: %v", gen, err)
				return
			}
		}
	}()
	wg.Wait()

	if want := int64(producers * batches * batchSize); scored.Load() != want {
		t.Fatalf("scored %d events, want %d (events dropped)", scored.Load(), want)
	}
	if n := mixed.Load(); n != 0 {
		t.Fatalf("%d events scored in mixed-generation batches", n)
	}
	if n := badScore.Load(); n != 0 {
		t.Fatalf("%d events scored outside the live generation range", n)
	}
	if got, want := sd.ScorerVersion(), fmt.Sprintf("gen-%d", int64(1+swaps)); got != want {
		t.Fatalf("final version %q, want %q", got, want)
	}
	if got := sd.Stats().Events; got != int64(producers*batches*batchSize) {
		t.Fatalf("stats count %d events", got)
	}
}

// TestServiceSwapUnderLoad exercises the same invariants through the
// asynchronous Service front: queued requests survive a swap and every
// verdict carries a live generation score.
func TestServiceSwapUnderLoad(t *testing.T) {
	scorers := make([]tuning.Scorer, 2)
	for i := range scorers {
		scorers[i] = &genScorer{gen: 1}
	}
	sd, err := NewShardedDetector(scorers, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(sd, ServiceConfig{QueueRequests: 4, BatchEvents: 32})

	const submits = 120
	var wg sync.WaitGroup
	var scored atomic.Int64
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < submits; i++ {
				events := []Event{
					ev(fmt.Sprintf("p%d-a", p), int64(i), "ls"),
					ev(fmt.Sprintf("p%d-b", p), int64(i), "cat /etc/passwd"),
				}
				vs, err := svc.Submit(events)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				for _, v := range vs {
					if v.LineScore < 1 {
						t.Errorf("impossible score %v", v.LineScore)
					}
				}
				scored.Add(int64(len(vs)))
			}
		}(p)
	}
	// A stats poller races the swaps: Stats' per-shard cache probe reads
	// the scorer field SwapScorer replaces, which -race must see as
	// synchronized.
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for i := 0; i < 200; i++ {
			svc.Stats()
		}
	}()
	for gen := 2; gen <= 10; gen++ {
		if err := svc.SwapScorer(&genScorer{gen: float64(gen)}, fmt.Sprintf("v%d", gen)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	<-statsDone
	svc.Close()
	if scored.Load() != 2*2*submits {
		t.Fatalf("scored %d, want %d", scored.Load(), 2*2*submits)
	}
	if got := svc.ScorerVersion(); got != "v10" {
		t.Fatalf("final service version %q", got)
	}
}
