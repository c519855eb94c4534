package stream

import (
	"errors"
	"fmt"

	"clmids/internal/tuning"
)

// ShardedDetector partitions the streaming detector across N shards keyed
// by hash(user) % N. Each shard is a full Detector — its own session map,
// its own stats, its own scorer — so shards score concurrently while every
// event of one user lands on one shard in arrival order. Service drives
// the shards (one coalescing worker per shard); per-user session verdicts
// are byte-identical to an unsharded Detector on the same stream
// (TestShardedServiceEquivalence pins this), and only the within-batch
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

// Shards returns the shard count.
func (d *ShardedDetector) Shards() int { return len(d.dets) }

// Shard exposes one shard's detector (the Service's per-shard workers,
// tests).
func (d *ShardedDetector) Shard(i int) *Detector { return d.dets[i] }

// Config returns the shared resolved configuration.
func (d *ShardedDetector) Config() Config { return d.dets[0].Config() }

// SwapScorer hot-reloads the detector: it replicates the new scorer once
// per shard (tuning.Replicas — shared frozen artifacts, per-shard engine),
// then swaps shard by shard through Detector.SwapScorer. Each shard's swap
// lands between its batches, so no batch scores on a mix of old and new
// scorers and nothing is dropped; a request spanning shards may see
// shards on either side of the swap while it is in progress.
//
// Replication happens before any lock is taken, so the scoring pause is
// the pointer swap, not the artifact load — swap cost is off the hot path.
func (d *ShardedDetector) SwapScorer(s tuning.Scorer, version string) error {
	scorers, err := tuning.Replicas(s, len(d.dets))
	if err != nil {
		return err
	}
	for i, det := range d.dets {
		det.SwapScorer(scorers[i], version)
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
		total.addCounters(s)
		total.ActiveSessions += s.ActiveSessions
		if s.Cascade != nil {
			if total.Cascade == nil {
				total.Cascade = &tuning.CascadeStats{}
			}
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
