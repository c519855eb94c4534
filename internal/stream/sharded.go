package stream

import (
	"errors"
	"fmt"
	"sync"

	"clmids/internal/tuning"
)

// ShardedDetector partitions the streaming detector across N shards keyed
// by hash(user) % N. Each shard is a full Detector — its own session map,
// its own stats, its own scorer — so shards score concurrently while every
// event of one user lands on one shard in arrival order. Per-user session
// verdicts are therefore byte-identical to an unsharded Detector on the
// same stream (TestShardedEquivalence pins this); only the within-call
// scoring dedup changes, because dedup is per shard.
//
// Scorers are typically replicas of one built scorer (core.ReplicateScorer
// / tuning.Replicas): they share the frozen backbone weights and every
// fitted artifact, replicating only the engine's scratch pool and score
// memo, so N shards cost N×(scratch + memo entries), never N× the model.
type ShardedDetector struct {
	dets []*Detector
}

// NewShardedDetector builds one shard per scorer, all with the same
// configuration. len(scorers) == 1 degenerates to an unsharded detector
// behind the same API. Scorers must not share mutable state across shards
// (replicas from tuning.Replicas satisfy this by construction).
func NewShardedDetector(scorers []tuning.Scorer, cfg Config) (*ShardedDetector, error) {
	if len(scorers) == 0 {
		return nil, errors.New("stream: sharded detector needs at least one scorer")
	}
	dets := make([]*Detector, len(scorers))
	for i, sc := range scorers {
		if sc == nil {
			return nil, fmt.Errorf("stream: shard %d scorer is nil", i)
		}
		dets[i] = NewDetector(sc, cfg)
	}
	return &ShardedDetector{dets: dets}, nil
}

// newShardedFromDetectors wraps pre-built shards (Service's constructor
// path for the single-shard NewService compatibility case).
func newShardedFromDetectors(dets []*Detector) *ShardedDetector {
	return &ShardedDetector{dets: dets}
}

// shardOf routes a user to a shard: FNV-1a over the user key, mod N. The
// same function routes Service.Submit requests, so queueing and processing
// agree on ownership. The hash is inlined (not hash/fnv) because this runs
// once per event on the ingest hot path and must not allocate.
func shardOf(user string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261) // FNV-1a offset basis
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= 16777619 // FNV prime
	}
	return int(h % uint32(n))
}

// partitionEvents splits events across n > 1 shards preserving relative
// order, returning per-shard event slices and each event's original
// position so verdicts can be scattered back into input order. Callers
// fast-path n == 1 (no partition, no scatter).
func partitionEvents(events []Event, n int) (parts [][]Event, pos [][]int) {
	parts = make([][]Event, n)
	pos = make([][]int, n)
	for i, ev := range events {
		sh := shardOf(ev.User, n)
		parts[sh] = append(parts[sh], ev)
		pos[sh] = append(pos[sh], i)
	}
	return parts, pos
}

// Shards returns the shard count.
func (d *ShardedDetector) Shards() int { return len(d.dets) }

// Shard exposes one shard's detector (tests and EvictIdle fan-out).
func (d *ShardedDetector) Shard(i int) *Detector { return d.dets[i] }

// Config returns the shared resolved configuration.
func (d *ShardedDetector) Config() Config { return d.dets[0].Config() }

// scatter writes one shard's verdicts back into their original input
// positions.
func scatter(out []Verdict, pos []int, vs []Verdict) {
	for k, v := range vs {
		out[pos[k]] = v
	}
}

// Process routes events to their shards, runs the shards concurrently,
// and returns verdicts in input order. Events must be time-ordered per
// user, exactly as for Detector.Process; distinct users interleave
// freely. Safe for concurrent use: shard pipeline mutexes are acquired in
// ascending shard order (the cheap sessionize phase), so two overlapping
// multi-shard calls serialize instead of deadlocking, while the expensive
// scoring phase still runs on every shard in parallel.
//
// Failure is all-or-nothing: no shard commits until every involved shard
// has scored (two-phase commit over Detector's begin/score/commit/abort),
// so one shard's scoring error rolls the whole batch back on every shard
// — exactly the unsharded retry-safety contract — and Process returns a
// joined error with no verdicts.
func (d *ShardedDetector) Process(events []Event) ([]Verdict, error) {
	if len(events) == 0 {
		return nil, nil
	}
	n := len(d.dets)
	if n == 1 {
		return d.dets[0].Process(events)
	}
	parts, pos := partitionEvents(events, n)

	// Phase 1a, ascending shard order: sessionize, taking each shard's
	// pipeline lock. The fixed order is the deadlock discipline. The
	// deferred sweep aborts whatever has begun but not finished — the
	// scoring-error path, and panics on this goroutine (begin of a later
	// shard, commit), so shard pipelines never stay wedged.
	batches := make([]*procBatch, n)
	defer func() {
		for _, b := range batches {
			if b != nil && !b.finished {
				b.abort()
			}
		}
	}()
	for sh := 0; sh < n; sh++ {
		if len(parts[sh]) > 0 {
			batches[sh] = d.dets[sh].begin(parts[sh])
		}
	}

	// Phase 1b, in parallel per shard: score, commit nothing.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for sh, b := range batches {
		if b == nil {
			continue
		}
		wg.Add(1)
		go func(sh int, b *procBatch) {
			defer wg.Done()
			if err := b.score(); err != nil {
				errs[sh] = fmt.Errorf("shard %d: %w", sh, err)
			}
		}(sh, b)
	}
	wg.Wait()

	// Phase 2: any failure aborts every shard (the deferred sweep);
	// otherwise all commit.
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]Verdict, len(events))
	for sh, b := range batches {
		if b != nil {
			scatter(out, pos[sh], b.commit())
		}
	}
	return out, nil
}

// SwapScorer hot-reloads the detector: it replicates the new scorer once
// per shard (tuning.Replicas — shared frozen artifacts, per-shard engine),
// then swaps every shard atomically between batches. The swap is
// two-phase, mirroring Process: phase 1 acquires every shard's pipeline
// mutex in ascending order (the same deadlock discipline Process uses), so
// it waits for every in-flight batch to commit and blocks new ones; phase
// 2 installs one replica per shard and stamps the version, then releases.
// No batch ever scores on a mix of old and new scorers — not even a
// multi-shard ShardedDetector.Process, whose shards all begin before any
// scores — and nothing is dropped: callers blocked on the pipeline mutexes
// simply proceed on the new scorer.
//
// Replication happens before any lock is taken, so the scoring pause is
// the pointer swap, not the artifact load — swap cost is off the hot path.
func (d *ShardedDetector) SwapScorer(s tuning.Scorer, version string) error {
	scorers, err := tuning.Replicas(s, len(d.dets))
	if err != nil {
		return err
	}
	for _, det := range d.dets {
		det.procMu.Lock()
	}
	for i, det := range d.dets {
		det.mu.Lock() // Stats' cache probe reads the scorer under mu
		det.scorer = scorers[i]
		det.version = version
		det.mu.Unlock()
	}
	for _, det := range d.dets {
		det.procMu.Unlock()
	}
	return nil
}

// SetScorerVersion stamps the artifact version on every shard without
// touching the scorers — the cold-start path, where the shards were
// constructed from replicas of an already-loaded bundle.
func (d *ShardedDetector) SetScorerVersion(version string) {
	for _, det := range d.dets {
		det.mu.Lock()
		det.version = version
		det.mu.Unlock()
	}
}

// ScorerVersion returns shard 0's artifact version; construction and
// SwapScorer keep every shard on the same one.
func (d *ShardedDetector) ScorerVersion() string { return d.dets[0].ScorerVersion() }

// SetModality stamps the served log modality on every shard. SwapScorer
// deliberately leaves it untouched: serving processes reject
// modality-mismatched bundles before swapping, so the stamp outlives
// reloads.
func (d *ShardedDetector) SetModality(m string) {
	for _, det := range d.dets {
		det.SetModality(m)
	}
}

// Modality returns shard 0's stamped log modality (every shard carries the
// same one).
func (d *ShardedDetector) Modality() string { return d.dets[0].Modality() }

// Stats returns counters summed across shards. ScoredInputs is the sum of
// per-shard dedup counts, so it can exceed the unsharded figure when the
// same line reaches users on different shards. ScorerVersion is shard 0's
// (every shard carries the same one).
func (d *ShardedDetector) Stats() Stats {
	total := Stats{ScorerVersion: d.ScorerVersion(), Modality: d.Modality()}
	for _, det := range d.dets {
		s := det.Stats()
		total.Events += s.Events
		total.ScoredInputs += s.ScoredInputs
		total.LineAlerts += s.LineAlerts
		total.SessionAlerts += s.SessionAlerts
		total.SessionsStarted += s.SessionsStarted
		total.SessionsIdleClosed += s.SessionsIdleClosed
		total.SessionsEvicted += s.SessionsEvicted
		total.ActiveSessions += s.ActiveSessions
		total.ScorerPanics += s.ScorerPanics
		total.QuarantinedInputs += s.QuarantinedInputs
		total.QuarantineHits += s.QuarantineHits
		if s.Cascade != nil {
			if total.Cascade == nil {
				total.Cascade = &tuning.CascadeStats{}
			}
			total.Cascade.Cleared += s.Cascade.Cleared
			total.Cascade.Triaged += s.Cascade.Triaged
			total.Cascade.Escalated += s.Cascade.Escalated
		}
		for _, sample := range s.QuarantineSample {
			if len(total.QuarantineSample) < quarSampleCap {
				total.QuarantineSample = append(total.QuarantineSample, sample)
			}
		}
	}
	return total
}

// ShardStats returns each shard's own counter snapshot, in shard order —
// the load-skew view (hot users hashing to one shard show up here).
func (d *ShardedDetector) ShardStats() []Stats {
	out := make([]Stats, len(d.dets))
	for i, det := range d.dets {
		out[i] = det.Stats()
	}
	return out
}

// EvictIdle fans the idle-session sweep out across every shard and returns
// the total evicted.
func (d *ShardedDetector) EvictIdle(now int64) int {
	n := 0
	for _, det := range d.dets {
		n += det.EvictIdle(now)
	}
	return n
}

// HighWater returns the latest event time seen across all shards.
func (d *ShardedDetector) HighWater() int64 {
	var hw int64
	for _, det := range d.dets {
		if t := det.HighWater(); t > hw {
			hw = t
		}
	}
	return hw
}
