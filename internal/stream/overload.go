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
//     the shard's scorer from its native precision to int8 (on a cascade:
//     the confirm rung moves to int8), trading the documented int8 parity
//     bound for ~3× cold throughput; shift back after sustained calm
//     (hysteresis).
//
// Degradation is per shard (a hot user hashing to one shard degrades only
// that shard) and swaps whole scorers via Detector.SwapScorer, so no batch
// ever mixes precisions and verdict thresholds stay within the int8
// parity bound the corpus harness pins.

import (
	"fmt"
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
	// downshifts saturated shards' scorers to int8.
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

// shardDegrade is one shard's degradation state. base, lever and the
// hysteresis fields (overAt, calmAt) are only touched under the service's
// degMu (single monitor discipline); degraded and the shift counters are
// atomics, so Stats and /readyz read them without waiting behind an
// in-flight scorer swap.
type shardDegrade struct {
	base     tuning.Scorer // the native scorer a recovery restores
	lever    bool          // base serves above int8: there is a downshift
	degraded atomic.Bool   // the shard serves base's int8 variant
	overAt   time.Time     // start of the current saturated stretch (zero: calm)
	calmAt   time.Time     // start of the current calm stretch while degraded
	downs    atomic.Int64
	ups      atomic.Int64
}

// rebind points one shard's degradation state at a (new) native scorer. A
// scorer that reports no precision, or already serves int8, has no lever:
// the shard still serves, the policy just cannot cheapen it.
func (st *shardDegrade) rebind(base tuning.Scorer) {
	native, ok := tuning.ScorerPrecision(base)
	st.base = base
	st.lever = ok && !native.Low()
	st.degraded.Store(false)
	st.downs.Store(0)
	st.ups.Store(0)
	st.overAt, st.calmAt = time.Time{}, time.Time{}
}

// initDegrade (re)binds every shard's degradation state to its current
// scorer — at service construction, and after a hot reload installs a new
// artifact (a reload resets degradation: the new bundle serves at its
// native precision until overload says otherwise). Callers hold degMu.
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
// hysteresis clock advanced — downshifting to int8 after DegradeAfter of
// sustained saturation, shifting back after RecoverAfter of sustained
// calm. The monitor goroutine calls it every OverloadTick; it is exported
// so drills and tests can drive the hysteresis clock deterministically. A
// sweep that decides to shift blocks until the shard's in-flight batch
// commits (SwapScorer semantics): the swap takes effect at the first
// moment it can influence scoring.
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
	if !st.lever {
		return
	}
	degraded := st.degraded.Load()
	if saturated {
		st.calmAt = time.Time{}
		if st.overAt.IsZero() {
			st.overAt = now
			return
		}
		if now.Sub(st.overAt) >= s.cfg.DegradeAfter && !degraded {
			if s.shiftShard(sh, st, true) {
				st.downs.Add(1)
			}
			st.overAt = now
		}
		return
	}
	st.overAt = time.Time{}
	if !degraded {
		st.calmAt = time.Time{}
		return
	}
	if st.calmAt.IsZero() {
		st.calmAt = now
		return
	}
	if now.Sub(st.calmAt) >= s.cfg.RecoverAfter {
		if s.shiftShard(sh, st, false) {
			st.ups.Add(1)
		}
		st.calmAt = now
	}
}

// shiftShard installs base's int8 variant (down) or base itself (up, warm
// score memo and all) on one shard. The variant is derived off the hot
// path via tuning.AtPrecision — replication and engine rebinding happen
// before the swap, so the scoring pause is the pointer exchange. Returns
// whether the shift took effect.
func (s *Service) shiftShard(sh *svcShard, st *shardDegrade, down bool) bool {
	next := st.base
	if down {
		sc, err := tuning.AtPrecision(st.base, model.PrecisionInt8)
		if err != nil {
			return false
		}
		next = sc
	}
	sh.det.SwapScorer(next, sh.det.ScorerVersion())
	st.degraded.Store(down)
	return true
}

// DegradedShards counts shards currently serving below their native
// precision. Zero under every policy but degrade.
func (s *Service) DegradedShards() int {
	n := 0
	for _, st := range s.deg {
		if st != nil && st.degraded.Load() {
			n++
		}
	}
	return n
}

// OverloadPolicy returns the service's configured overload policy.
func (s *Service) OverloadPolicy() OverloadPolicy { return s.cfg.Overload }
