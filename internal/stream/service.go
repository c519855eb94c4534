package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clmids/internal/model"
	"clmids/internal/tuning"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("stream: service closed")

// ErrOverloaded is returned by Submit under the shed policy when a target
// shard's queue is full. The HTTP layer maps it to 429 + Retry-After;
// callers seeing it should back off and resend.
var ErrOverloaded = errors.New("stream: shard queue full")

// ServiceConfig sizes the asynchronous front. The zero value selects
// defaults. Queue and batch bounds are per shard: a hot shard saturating
// its queue back-pressures only producers sending to it.
type ServiceConfig struct {
	// QueueRequests bounds each shard's request queue; a full queue blocks
	// Submit (backpressure to the producer). Default 64.
	QueueRequests int
	// BatchEvents caps how many events a shard worker coalesces from its
	// queued requests into one Detector.Process call. Default 512.
	BatchEvents int

	// Overload selects what happens when a shard queue saturates: block
	// (default), shed (ErrOverloaded), or degrade (block + int8
	// downshift under sustained overload). See OverloadPolicy.
	Overload OverloadPolicy
	// HighWaterFrac is the queue-depth fraction at which a shard counts as
	// saturated for the degrade policy. Default 0.75.
	HighWaterFrac float64
	// DegradeAfter is how long a shard must stay saturated before the
	// degrade policy downshifts it to int8. Default 2s.
	DegradeAfter time.Duration
	// RecoverAfter is how long a degraded shard must stay calm before it
	// shifts back to its native precision. Default 15s (recovery is deliberately much
	// slower than degradation: flapping costs a scorer swap each way).
	RecoverAfter time.Duration
	// OverloadTick is the monitor's sampling interval. Default 250ms.
	OverloadTick time.Duration
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.QueueRequests <= 0 {
		c.QueueRequests = 64
	}
	if c.BatchEvents <= 0 {
		c.BatchEvents = 512
	}
	if c.HighWaterFrac <= 0 || c.HighWaterFrac > 1 {
		c.HighWaterFrac = 0.75
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 2 * time.Second
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 15 * time.Second
	}
	if c.OverloadTick <= 0 {
		c.OverloadTick = 250 * time.Millisecond
	}
	return c
}

// ShardServiceStats is one shard's slice of a stats snapshot: its detector
// counters, its queue state, and — when the shard's scorer runs through
// an engine's score memo — its memo counters. Per-shard queue depth
// exposes load skew (hot users hashing to one shard); the hit rate exposes
// memo effectiveness per replica.
type ShardServiceStats struct {
	Shard int `json:"shard"`
	Stats
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Cache is nil when the shard's scorer exposes no cache stats.
	Cache *tuning.CacheStats `json:"cache,omitempty"`
	// CacheHitRate is Cache's hit rate, 0 without cache stats.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Precision is the shard scorer's serving precision (a cascade reports
	// its confirm rung's), empty when the scorer does not report one.
	Precision string `json:"precision,omitempty"`
	// Degraded reports whether the degrade policy currently holds this
	// shard at int8 below its native precision.
	Degraded bool `json:"degraded"`
	// Downshifts / Upshifts count this shard's precision shifts since the
	// scorer was (re)bound.
	Downshifts int64 `json:"downshifts,omitempty"`
	Upshifts   int64 `json:"upshifts,omitempty"`
}

// ServiceStats aggregates detector counters and queue state across shards;
// Shards carries the per-shard breakdown (len 1 for an unsharded service).
type ServiceStats struct {
	Stats
	// Config is the resolved session configuration — the fleet router reads
	// it off /stats to mirror session semantics (shadow windows, handoff
	// checkpoints) and to refuse replicas whose configs disagree.
	Config Config `json:"config"`
	// QueueDepth is the number of requests waiting across all shard queues
	// at snapshot time.
	QueueDepth int `json:"queue_depth"`
	// QueueCapacity is the configured bound summed across shards.
	QueueCapacity int `json:"queue_capacity"`
	// OverloadPolicy is the configured policy ("block" | "shed" |
	// "degrade").
	OverloadPolicy string `json:"overload_policy"`
	// ShedRequests counts Submits rejected with ErrOverloaded.
	ShedRequests int64 `json:"shed_requests"`
	// DegradedShards counts shards currently serving below native
	// precision.
	DegradedShards int `json:"degraded_shards"`
	// Shards is the per-shard breakdown.
	Shards []ShardServiceStats `json:"shards"`
}

type request struct {
	events []Event
	reply  chan result
}

type result struct {
	verdicts []Verdict
	err      error
}

// svcShard is one shard's asynchronous lane: a bounded queue drained by
// one coalescing worker over the shard's detector.
type svcShard struct {
	det   *Detector
	queue chan request
	done  chan struct{}
}

// Service runs a ShardedDetector behind bounded per-shard queues:
// producers Submit event slices, the service routes each event to its
// user's shard (hash(user) % N, the same key the detector uses), and each
// shard's single worker coalesces adjacent requests into full scoring
// batches — one Detector.Process per batch, so the engine sees large
// deduplicated requests even when producers send line by line. What a full
// shard queue means is the overload policy's call: block (backpressure,
// bounded by the Submit context), shed (ErrOverloaded), or degrade (block,
// plus precision downshift under sustained saturation). Close drains every
// accepted request on every shard before returning.
//
// One worker per shard is deliberate: per-user event order must survive
// queuing, and hash routing guarantees a user's events always meet the
// same worker. Cross-shard scoring runs concurrently — that is the whole
// point — while scoring parallelism within a shard still lives inside the
// engine-backed scorer.
//
// The embedded ShardedDetector supplies the session surface: checkpoints
// (Save/Restore/Export/ImportSessions), EvictIdle, HighWater, Config,
// ScorerVersion and Modality.
type Service struct {
	*ShardedDetector
	cfg    ServiceConfig
	shards []*svcShard

	mu       sync.RWMutex
	closed   bool
	closing  chan struct{}  // closed when Close begins; unblocks queued senders
	inflight sync.WaitGroup // admitted Submits not yet done sending

	shed atomic.Int64

	// degMu serializes everything that decides which scorer a shard should
	// run: the overload monitor's shift sweeps and SwapScorer's rebind.
	// Lock order is degMu → (detector) procMu; nothing acquires them the
	// other way.
	degMu       sync.Mutex
	deg         []*shardDegrade
	monitorDone chan struct{}
}

// NewService starts a single-shard service over det — the unsharded
// configuration, kept for callers that bring their own Detector.
func NewService(det *Detector, cfg ServiceConfig) *Service {
	return NewShardedService(&ShardedDetector{dets: []*Detector{det}}, cfg)
}

// NewShardedService starts one queue + coalescing worker per shard of sd,
// plus — under the degrade policy — the overload monitor.
func NewShardedService(sd *ShardedDetector, cfg ServiceConfig) *Service {
	s := &Service{
		ShardedDetector: sd,
		cfg:             cfg.withDefaults(),
		closing:         make(chan struct{}),
		monitorDone:     make(chan struct{}),
	}
	s.shards = make([]*svcShard, sd.Shards())
	s.deg = make([]*shardDegrade, sd.Shards())
	for i := range s.shards {
		sh := &svcShard{
			det:   sd.Shard(i),
			queue: make(chan request, s.cfg.QueueRequests),
			done:  make(chan struct{}),
		}
		s.shards[i] = sh
		s.deg[i] = &shardDegrade{}
		go s.worker(sh)
	}
	s.degMu.Lock()
	s.initDegrade()
	s.degMu.Unlock()
	if s.cfg.Overload == OverloadDegrade {
		go s.monitor()
	} else {
		close(s.monitorDone)
	}
	return s
}

// Submit is SubmitContext without a deadline: it blocks as long as the
// overload policy blocks.
func (s *Service) Submit(events []Event) ([]Verdict, error) {
	return s.SubmitContext(context.Background(), events)
}

// SubmitContext routes events to their shards, enqueues one request per
// involved shard, and waits for all verdicts, returned one per event in
// input order. While a target shard's queue is full it blocks until there
// is room, ctx is done (ctx.Err()), or Close begins (ErrClosed) — under
// the shed policy it returns ErrOverloaded immediately instead of
// blocking. Concurrent Submits of the same user are serialized by that
// user's single shard queue, so per-user order within one Submit is always
// preserved.
//
// Error semantics: each shard's coalesced batch is one atomic
// Detector.Process (nothing commits on failure), but shards coalesce
// independently, so when a multi-shard Submit returns an error — a scoring
// failure, cancellation, or shed mid-enqueue — events already accepted by
// other shards have been (or will be) ingested, and a retry should resend
// only the failed shard's events. The shed policy pre-checks every
// involved shard's queue before enqueueing anything, so a shed rejection
// is usually, but not guaranteedly, all-or-nothing.
func (s *Service) SubmitContext(ctx context.Context, events []Event) ([]Verdict, error) {
	if len(events) == 0 {
		return nil, nil
	}

	// Admission: registering with inflight under the read lock pairs with
	// Close's write-lock flip — after Close observes closed=true and
	// inflight drains, no sender exists, so closing the queues is safe.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	defer s.inflight.Done()

	n := len(s.shards)
	if n == 1 {
		if err := s.admit(s.shards[:1]); err != nil {
			return nil, err
		}
		req := request{events: events, reply: make(chan result, 1)}
		if err := s.send(ctx, s.shards[0], req); err != nil {
			return nil, err
		}
		select {
		case res := <-req.reply:
			return res.verdicts, res.err
		case <-ctx.Done():
			// The request is accepted and will be processed; the caller
			// stops waiting for the verdicts (the reply buffer absorbs
			// them — the worker never blocks on an abandoned caller).
			return nil, ctx.Err()
		}
	}

	parts, pos := make([][]Event, n), make([][]int, n)
	for i, ev := range events {
		sh := shardOf(ev.User, n)
		parts[sh] = append(parts[sh], ev)
		pos[sh] = append(pos[sh], i)
	}
	involved := make([]*svcShard, 0, n)
	for sh := 0; sh < n; sh++ {
		if len(parts[sh]) > 0 {
			involved = append(involved, s.shards[sh])
		}
	}
	if err := s.admit(involved); err != nil {
		return nil, err
	}
	type pendingReq struct {
		shard int
		reply chan result
	}
	pending := make([]pendingReq, 0, n)
	var sendErr error
	for sh := 0; sh < n && sendErr == nil; sh++ {
		if len(parts[sh]) == 0 {
			continue
		}
		req := request{events: parts[sh], reply: make(chan result, 1)}
		if sendErr = s.send(ctx, s.shards[sh], req); sendErr != nil {
			break
		}
		pending = append(pending, pendingReq{shard: sh, reply: req.reply})
	}

	out := make([]Verdict, len(events))
	var errs []error
	if sendErr != nil {
		errs = append(errs, sendErr)
	}
	for _, p := range pending {
		var res result
		select {
		case res = <-p.reply:
		case <-ctx.Done():
			// Accepted shards keep processing; stop waiting for them.
			errs = append(errs, ctx.Err())
			return nil, errors.Join(errs...)
		}
		if res.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", p.shard, res.err))
			continue
		}
		for k, v := range res.verdicts {
			out[pos[p.shard][k]] = v
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// admit is the shed policy's pre-check: reject before enqueueing anything
// if any involved shard is already full, so a shed almost never leaves a
// partial ingest behind. No-op under other policies.
func (s *Service) admit(involved []*svcShard) error {
	if s.cfg.Overload != OverloadShed {
		return nil
	}
	for _, sh := range involved {
		if len(sh.queue) >= cap(sh.queue) {
			s.shed.Add(1)
			return ErrOverloaded
		}
	}
	return nil
}

// send enqueues one request on one shard under the configured policy.
func (s *Service) send(ctx context.Context, sh *svcShard, req request) error {
	if s.cfg.Overload == OverloadShed {
		select {
		case sh.queue <- req:
			return nil
		default:
			s.shed.Add(1)
			return ErrOverloaded
		}
	}
	select {
	case sh.queue <- req:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.closing:
		return ErrClosed
	}
}

// Close stops intake, drains every accepted request on every shard through
// its detector, and waits for the shard workers and the overload monitor
// to exit. Producers blocked on a full queue unblock with ErrClosed; every
// request accepted before Close began still gets its reply. Safe to call
// more than once.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.closing)
		// No new Submit passes admission now; once the admitted ones finish
		// sending (or bail via closing), no sender can exist — closing the
		// queues is safe, and workers drain them to empty before exiting.
		s.inflight.Wait()
		for _, sh := range s.shards {
			close(sh.queue)
		}
	}
	<-s.monitorDone
	for _, sh := range s.shards {
		<-sh.done
	}
}

// Stats snapshots detector counters plus queue, overload, and degradation
// state, aggregated across shards, with the per-shard breakdown attached.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Stats:          s.ShardedDetector.Stats(),
		Config:         s.Config(),
		OverloadPolicy: s.cfg.Overload.String(),
		ShedRequests:   s.shed.Load(),
		Shards:         make([]ShardServiceStats, len(s.shards)),
	}
	for i, sh := range s.shards {
		ss := ShardServiceStats{
			Shard:         i,
			Stats:         sh.det.Stats(),
			QueueDepth:    len(sh.queue),
			QueueCapacity: s.cfg.QueueRequests,
		}
		sc := sh.det.scorerRef()
		if cs, ok := sc.(tuning.CacheStatser); ok {
			c := cs.CacheStats()
			ss.Cache = &c
			ss.CacheHitRate = c.HitRate()
		}
		if p, ok := tuning.ScorerPrecision(sc); ok {
			if p == "" {
				p = model.PrecisionFloat64
			}
			ss.Precision = string(p)
		}
		if dg := s.deg[i]; dg != nil {
			ss.Degraded = dg.degraded.Load()
			ss.Downshifts, ss.Upshifts = dg.downs.Load(), dg.ups.Load()
			if ss.Degraded {
				st.DegradedShards++
			}
		}
		st.QueueDepth += ss.QueueDepth
		st.QueueCapacity += ss.QueueCapacity
		st.Shards[i] = ss
	}
	return st
}

// SwapScorer hot-reloads the service's scorer across every shard without
// stopping intake: queued requests keep queueing, in-flight batches finish
// on the old scorer, and every batch after the swap scores on the new one
// (ShardedDetector.SwapScorer semantics — atomic between batches, nothing
// dropped, no mixed batch). Holding degMu across the swap and the rebind
// keeps the overload monitor from installing a precision variant of the
// outgoing scorer after the new one lands; the new artifact starts at its
// native rung.
func (s *Service) SwapScorer(sc tuning.Scorer, version string) error {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	if err := s.ShardedDetector.SwapScorer(sc, version); err != nil {
		return err
	}
	s.initDegrade()
	return nil
}

// CloseTimeout is Close bounded by a deadline: it drains like Close but
// gives up waiting after d, returning false — the wedged-shard case, where
// a stuck scorer would otherwise hang shutdown forever. The drain keeps
// running in the background (workers still answer whatever they can); the
// caller proceeds to final checkpointing with whatever committed. d <= 0
// waits indefinitely (plain Close semantics, returns true).
func (s *Service) CloseTimeout(d time.Duration) bool {
	if d <= 0 {
		s.Close()
		return true
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// worker drains one shard's queue until it is closed and empty, coalescing
// requests up to BatchEvents per scoring call.
func (s *Service) worker(sh *svcShard) {
	defer close(sh.done)
	for req := range sh.queue {
		batch := []request{req}
		total := len(req.events)
	coalesce:
		for total < s.cfg.BatchEvents {
			select {
			case more, ok := <-sh.queue:
				if !ok {
					break coalesce
				}
				batch = append(batch, more)
				total += len(more.events)
			default:
				break coalesce
			}
		}
		events := make([]Event, 0, total)
		for _, r := range batch {
			events = append(events, r.events...)
		}
		verdicts, err := sh.det.Process(events)
		at := 0
		for _, r := range batch {
			if err != nil {
				r.reply <- result{err: fmt.Errorf("stream: batch of %d events: %w", total, err)}
				continue
			}
			r.reply <- result{verdicts: verdicts[at : at+len(r.events)]}
			at += len(r.events)
		}
	}
}
