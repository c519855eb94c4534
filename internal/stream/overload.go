package stream

// Overload policies and graceful precision degradation. The paper's
// deployment (~30M lines/day from ~100k machines) cannot afford a detector
// that stalls under a traffic spike: a wedged replica silently drops
// exactly the multi-line chains sessions exist to catch. The service
// therefore picks one of three behaviors when a shard's queue saturates:
//
//   - block: today's backpressure — Submit waits (bounded by its context).
//   - shed: refuse with ErrOverloaded; the HTTP layer maps it to 429 +
//     Retry-After so well-behaved producers back off.
//   - degrade: keep accepting, but under sustained saturation downshift
//     the shard's scorer one rung on the precision ladder (float64 →
//     float32 → int8, PR 5), trading the documented parity bounds for 3-4×
//     cold throughput; shift back up after sustained calm (hysteresis).
//
// Degradation is per shard (a hot user hashing to one shard degrades only
// that shard) and swaps whole scorers via Detector.SwapScorer, so no batch
// ever mixes rungs and verdict thresholds stay within the PR 5 parity
// bounds the corpus harness pins.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clmids/internal/model"
	"clmids/internal/tuning"
)

// OverloadPolicy selects what Submit does when a target shard's queue is
// full (and, for degrade, what the monitor does under sustained overload).
type OverloadPolicy int

const (
	// OverloadBlock waits for queue space: lossless backpressure.
	OverloadBlock OverloadPolicy = iota
	// OverloadShed rejects with ErrOverloaded instead of queueing.
	OverloadShed
	// OverloadDegrade blocks like OverloadBlock, and additionally
	// downshifts saturated shards' scorers down the precision ladder.
	OverloadDegrade
)

// String renders the policy (the clmserve flag values).
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadShed:
		return "shed"
	case OverloadDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// ParseOverloadPolicy converts a flag value into an OverloadPolicy.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "", "block":
		return OverloadBlock, nil
	case "shed":
		return OverloadShed, nil
	case "degrade":
		return OverloadDegrade, nil
	default:
		return 0, fmt.Errorf("stream: unknown overload policy %q (want block | shed | degrade)", s)
	}
}

// precisionLadder is the degradation order, most exact first.
var precisionLadder = [...]model.Precision{
	model.PrecisionFloat64, model.PrecisionFloat32, model.PrecisionInt8,
}

// rungsFrom returns the ladder from a scorer's native rung downward: a
// float32-native scorer can only degrade to int8; an int8-native one has
// nowhere to go.
func rungsFrom(native model.Precision) []model.Precision {
	if native == "" {
		native = model.PrecisionFloat64
	}
	for i, p := range precisionLadder {
		if p == native {
			return precisionLadder[i:]
		}
	}
	return []model.Precision{native}
}

// shardDegrade is one shard's degradation state. The hysteresis fields
// (overAt, calmAt) are only touched under the service's degMu (single
// monitor discipline); base and ladder sit behind the small local mutex so
// Stats and /readyz read displayed state without waiting behind an
// in-flight scorer swap; rung and the shift counters are atomics.
type shardDegrade struct {
	mu      sync.Mutex // guards base + ladder (rebind on reload vs. readers)
	base    tuning.Scorer
	ladder  []model.Precision
	rung    atomic.Int32 // index into ladder; 0 = native
	overAt  time.Time    // start of the current saturated stretch (zero: calm)
	calmAt  time.Time    // start of the current calm stretch while degraded
	downs   atomic.Int64
	ups     atomic.Int64
	lastErr atomic.Value // string: most recent shift failure, for /stats
}

// rebind points one shard's degradation state at a (new) native scorer.
func (st *shardDegrade) rebind(base tuning.Scorer) {
	ladder := []model.Precision{model.PrecisionFloat64}
	if native, ok := tuning.ScorerPrecision(base); ok {
		ladder = rungsFrom(native)
	}
	// else: no reported rung — nothing to degrade through; the shard still
	// serves, the policy just has no lever here.
	st.mu.Lock()
	st.base = base
	st.ladder = ladder
	st.mu.Unlock()
	st.rung.Store(0)
	st.downs.Store(0)
	st.ups.Store(0)
	st.overAt, st.calmAt = time.Time{}, time.Time{}
}

// initDegrade (re)binds every shard's degradation state to its current
// scorer — at service construction, and after a hot reload installs a new
// artifact (a reload resets degradation: the new bundle serves at its
// native rung until overload says otherwise). Callers hold degMu.
func (s *Service) initDegrade() {
	for i, sh := range s.shards {
		s.deg[i].rebind(sh.det.scorerRef())
	}
}

// queueHighWater is the depth at which a shard queue counts as saturated.
func (s *Service) queueHighWater() int {
	hw := int(float64(s.cfg.QueueRequests) * s.cfg.HighWaterFrac)
	if hw < 1 {
		hw = 1
	}
	if hw > s.cfg.QueueRequests {
		hw = s.cfg.QueueRequests
	}
	return hw
}

// monitor drives the degrade policy: one sampling sweep per OverloadTick
// until the service closes.
func (s *Service) monitor() {
	defer close(s.monitorDone)
	tick := time.NewTicker(s.cfg.OverloadTick)
	defer tick.Stop()
	for {
		select {
		case <-s.closing:
			return
		case now := <-tick.C:
			s.PollOverload(now)
		}
	}
}

// PollOverload runs one overload sampling sweep at the given instant: each
// shard's queue depth is compared against the high-water mark and the
// hysteresis clock advanced — downshifting after DegradeAfter of sustained
// saturation, upshifting after RecoverAfter of sustained calm. The monitor
// goroutine calls it every OverloadTick; it is exported so drills and
// tests can drive the hysteresis clock deterministically. A sweep that
// decides to shift blocks until the shard's in-flight batch commits
// (SwapScorer semantics): the swap takes effect at the first moment it can
// influence scoring.
func (s *Service) PollOverload(now time.Time) {
	if s.cfg.Overload != OverloadDegrade {
		return
	}
	hw := s.queueHighWater()
	s.degMu.Lock()
	defer s.degMu.Unlock()
	for i, sh := range s.shards {
		s.observeShard(sh, s.deg[i], len(sh.queue) >= hw, now)
	}
}

// observeShard advances one shard's hysteresis state machine. Callers hold
// degMu.
func (s *Service) observeShard(sh *svcShard, st *shardDegrade, saturated bool, now time.Time) {
	st.mu.Lock()
	rungs := len(st.ladder)
	st.mu.Unlock()
	if rungs < 2 {
		return
	}
	rung := int(st.rung.Load())
	if saturated {
		st.calmAt = time.Time{}
		if st.overAt.IsZero() {
			st.overAt = now
			return
		}
		if now.Sub(st.overAt) >= s.cfg.DegradeAfter && rung < rungs-1 {
			if s.shiftShard(sh, st, rung+1) {
				st.downs.Add(1)
			}
			st.overAt = now // the next rung needs its own sustained stretch
		}
		return
	}
	st.overAt = time.Time{}
	if rung == 0 {
		st.calmAt = time.Time{}
		return
	}
	if st.calmAt.IsZero() {
		st.calmAt = now
		return
	}
	if now.Sub(st.calmAt) >= s.cfg.RecoverAfter {
		if s.shiftShard(sh, st, rung-1) {
			st.ups.Add(1)
		}
		st.calmAt = now
	}
}

// shiftShard installs the scorer for ladder[rung] on one shard. Rung 0
// restores the original base scorer (warm score memo and all); lower rungs
// derive a fresh variant from the base via tuning.AtPrecision — replication
// and engine rebinding happen before the swap, so the scoring pause is the
// pointer exchange. Returns whether the shift took effect.
func (s *Service) shiftShard(sh *svcShard, st *shardDegrade, rung int) bool {
	st.mu.Lock()
	base := st.base
	target := st.ladder[rung]
	st.mu.Unlock()
	next := base
	if rung != 0 {
		sc, err := tuning.AtPrecision(base, target)
		if err != nil {
			st.lastErr.Store(err.Error())
			return false
		}
		next = sc
	}
	sh.det.SwapScorer(next, sh.det.ScorerVersion())
	st.rung.Store(int32(rung))
	return true
}

// info reports one shard's displayed degradation state without waiting
// behind an in-flight swap.
func (st *shardDegrade) info() (rung int, precision model.Precision, downs, ups int64) {
	rung = int(st.rung.Load())
	st.mu.Lock()
	if rung >= len(st.ladder) {
		rung = len(st.ladder) - 1
	}
	precision = st.ladder[rung]
	st.mu.Unlock()
	return rung, precision, st.downs.Load(), st.ups.Load()
}

// DegradedShards counts shards currently serving below their native rung.
// Zero under every policy but degrade.
func (s *Service) DegradedShards() int {
	n := 0
	for _, st := range s.deg {
		if st != nil && st.rung.Load() > 0 {
			n++
		}
	}
	return n
}

// OverloadPolicy returns the service's configured overload policy.
func (s *Service) OverloadPolicy() OverloadPolicy { return s.cfg.Overload }
