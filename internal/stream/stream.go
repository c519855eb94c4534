// Package stream is the online serving layer of the IDS: it ingests
// timestamped (user, line) events, maintains sliding per-user session
// windows, scores incrementally through a Scorer (in deployment an
// inference engine behind a score memo), and aggregates line scores into
// session-level verdicts.
//
// The paper's setting is ~30M command lines per day streaming in from
// ~100k machines; the detection methods of §IV score static batches. This
// package closes that gap with two pieces:
//
//   - Detector: the synchronous core. Process consumes an ordered slice of
//     events, updates session state, and returns one Verdict per event.
//     Scoring inside a batch is deduplicated and issued as a single Score
//     call, so the engine's batching and cache do the heavy lifting.
//   - Service (service.go): the asynchronous front. A bounded queue with
//     blocking backpressure, a coalescing worker that merges small requests
//     into full scoring batches, and a graceful drain on Close.
//
// Session semantics: a session is a per-user run of events whose
// event-time gaps stay within IdleTimeout; a larger gap closes the session
// and starts a fresh one. Within a session, only the most recent
// MaxSessionLines events are retained (sliding window). When ContextWindow
// is greater than one, each event is scored as the join of its most recent
// in-gap session lines — the §IV-C multi-line input built online — so
// attack chains whose individual lines look benign still produce a high
// context score, and the session aggregate (max / mean / exponential
// decay) trips the session alarm.
package stream

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"clmids/internal/tuning"
)

// Event is one logged command line entering the detector.
type Event struct {
	// User is the account (or machine) that issued the line; sessions are
	// keyed by it.
	User string `json:"user"`
	// Time is the execution time in Unix seconds. Sessionization uses
	// event time, not wall-clock arrival, so replayed logs behave exactly
	// like live traffic.
	Time int64 `json:"time"`
	// Line is the raw command line.
	Line string `json:"line"`
}

// Aggregation selects how per-line scores combine into a session score.
type Aggregation int

// Session aggregation modes.
const (
	// AggMax scores a session by its most suspicious line.
	AggMax Aggregation = iota
	// AggMean scores a session by the mean over its window.
	AggMean
	// AggDecay scores a session by an exponentially decayed weighted mean:
	// the newest line has weight 1, each step back multiplies by Decay.
	// Low Decay approaches AggMax on the newest line; Decay 1 is AggMean.
	AggDecay
)

// String renders the aggregation mode (the clmserve/-follow flag values).
func (a Aggregation) String() string {
	switch a {
	case AggMax:
		return "max"
	case AggMean:
		return "mean"
	case AggDecay:
		return "decay"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// ParseAggregation converts a flag value into an Aggregation.
func ParseAggregation(s string) (Aggregation, error) {
	switch s {
	case "max":
		return AggMax, nil
	case "mean":
		return AggMean, nil
	case "decay":
		return AggDecay, nil
	default:
		return 0, fmt.Errorf("stream: unknown aggregation %q (want max | mean | decay)", s)
	}
}

// Config controls sessionization, context building, aggregation, and
// alert thresholds. The zero value is completed by defaults (see
// DefaultConfig); thresholds of 0 disable the corresponding alert.
type Config struct {
	// ContextWindow is the number of session lines (including the current
	// one) joined into each scoring input, the §IV-C multi-line input
	// built online. 1 scores every line alone. Default 1.
	ContextWindow int
	// ContextGap is the largest event-time gap in seconds between
	// consecutive context lines; older lines are not attached (the paper:
	// lines "whose execution time is too long ago"). Default 600.
	ContextGap int64
	// IdleTimeout is the event-time gap in seconds that closes a session.
	// Default 1800.
	IdleTimeout int64
	// MaxSessionLines bounds the per-session sliding window. Default 64.
	MaxSessionLines int
	// Aggregation combines window line scores into the session score.
	Aggregation Aggregation
	// Decay is the per-step weight multiplier for AggDecay, in (0, 1].
	// Default 0.7.
	Decay float64
	// LineThreshold fires a LineAlert when a raw line's own score reaches
	// it — what a per-line detector would flag. 0 disables.
	LineThreshold float64
	// SessionThreshold fires a SessionAlert when the session score reaches
	// it. 0 disables.
	SessionThreshold float64
	// QuarantineScore is the score assigned to quarantined (poison) scoring
	// inputs — lines the scorer reproducibly panics on. The default 0 is
	// neutral: a quarantined line neither trips alerts nor dilutes session
	// aggregates upward.
	QuarantineScore float64
	// MaxQuarantine bounds the remembered poison-input set; beyond it,
	// poison lines are still isolated per batch (and counted) but not
	// remembered across batches. Default 1024.
	MaxQuarantine int
}

// DefaultConfig returns the deployment defaults: single-line scoring,
// 10-minute context gap, 30-minute sessions, 64-line windows, decayed
// aggregation. Thresholds stay 0 (disabled) because score scales are
// method-specific; services must set them explicitly.
func DefaultConfig() Config {
	return Config{
		ContextWindow:   1,
		ContextGap:      600,
		IdleTimeout:     1800,
		MaxSessionLines: 64,
		Aggregation:     AggDecay,
		Decay:           0.7,
	}
}

func (c Config) withDefaults() Config {
	if c.ContextWindow <= 0 {
		c.ContextWindow = 1
	}
	if c.ContextGap <= 0 {
		c.ContextGap = 600
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 1800
	}
	if c.MaxSessionLines <= 0 {
		c.MaxSessionLines = 64
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 0.7
	}
	if c.MaxQuarantine <= 0 {
		c.MaxQuarantine = 1024
	}
	return c
}

// Verdict is the detector's output for one event.
type Verdict struct {
	User string `json:"user"`
	Time int64  `json:"time"`
	Line string `json:"line"`
	// Context is the joined multi-line scoring input when ContextWindow >
	// 1 and context lines were attached; empty otherwise.
	Context string `json:"context,omitempty"`
	// LineScore is the score of the raw line alone — what a per-line
	// detector would see.
	LineScore float64 `json:"line_score"`
	// ContextScore is the score of the context-joined input (equal to
	// LineScore when no context was attached); it is what enters the
	// session aggregate.
	ContextScore float64 `json:"context_score"`
	// SessionScore is the aggregate over the session window as of this
	// event.
	SessionScore float64 `json:"session_score"`
	// SessionLines is the number of lines in the window as of this event.
	SessionLines int `json:"session_lines"`
	// LineAlert and SessionAlert report threshold crossings.
	LineAlert    bool `json:"line_alert"`
	SessionAlert bool `json:"session_alert"`
}

// Stats is a snapshot of detector counters.
type Stats struct {
	// Events is the number of events processed.
	Events int64 `json:"events"`
	// ScoredInputs is the number of unique strings handed to the scorer
	// (after within-batch dedup; the engine dedups and caches further).
	ScoredInputs int64 `json:"scored_inputs"`
	// LineAlerts and SessionAlerts count threshold crossings.
	LineAlerts    int64 `json:"line_alerts"`
	SessionAlerts int64 `json:"session_alerts"`
	// SessionsStarted counts sessions opened (first event or idle
	// restart); SessionsIdleClosed counts sessions closed by an in-stream
	// idle gap; SessionsEvicted counts sessions removed by EvictIdle.
	SessionsStarted    int64 `json:"sessions_started"`
	SessionsIdleClosed int64 `json:"sessions_idle_closed"`
	SessionsEvicted    int64 `json:"sessions_evicted"`
	// ActiveSessions is the live session count at snapshot time.
	ActiveSessions int `json:"active_sessions"`
	// ScorerPanics counts scorer panics recovered by the batch pipeline.
	// Cumulative resilience knowledge: never rolled back by an abort.
	ScorerPanics int64 `json:"scorer_panics,omitempty"`
	// QuarantinedInputs counts scoring inputs isolated as poison (the
	// scorer reproducibly panicked on them alone); QuarantineHits counts
	// scores served from quarantine without touching the scorer.
	QuarantinedInputs int64 `json:"quarantined_inputs,omitempty"`
	QuarantineHits    int64 `json:"quarantine_hits,omitempty"`
	// QuarantineSample holds the most recently quarantined inputs (bounded
	// to a handful), so /stats shows what the poison looks like.
	QuarantineSample []string `json:"quarantine_sample,omitempty"`
	// Cascade is the per-rung traffic split when the active scorer is a
	// scoring cascade (tuning.CascadeStatser): how many scoring inputs the
	// rarity pre-filter cleared, the int8 triage rung scored, and the f64
	// confirm rung re-scored. Nil for non-cascade scorers.
	Cascade *tuning.CascadeStats `json:"cascade,omitempty"`
	// ScorerVersion identifies the active scorer artifact (the bundle
	// version for bundle-loaded scorers); empty when never set. Set at
	// construction time via SwapScorer or ShardedDetector.SetScorerVersion.
	ScorerVersion string `json:"scorer_version,omitempty"`
	// Modality names the log modality the active scorer was trained for
	// (the bundle manifest's modality); empty when never set. The reload
	// path rejects modality-mismatched bundles, so this is stable for the
	// life of the service.
	Modality string `json:"modality,omitempty"`
}

// entry is one retained window line.
type entry struct {
	time  int64
	line  string
	score float64 // context score; filled in after batch scoring
}

// session is the per-user sliding window.
type session struct {
	last    int64
	entries []entry
}

// Detector is the synchronous streaming core. Methods are safe for
// concurrent use; Process calls serialize on a pipeline mutex (scoring
// parallelism lives inside the engine-backed scorer, not across batches),
// which also keeps per-user event order deterministic. Session and
// counter state sits behind a separate short-lived mutex so Stats and
// EvictIdle never block behind an in-flight scoring call.
type Detector struct {
	scorer tuning.Scorer
	cfg    Config

	procMu sync.Mutex // serializes Process end to end

	mu        sync.Mutex // guards sessions + stats, never held while scoring
	sessions  map[string]*session
	stats     Stats
	highWater int64  // latest event time seen, for event-time EvictIdle sweeps
	version   string // active scorer artifact version, surfaced in Stats
	modality  string // log modality the scorer serves, surfaced in Stats

	// Poison quarantine: scoring inputs the scorer reproducibly panicked
	// on, isolated by batch bisection. quar is guarded by mu; quarLen
	// mirrors len(quar) atomically so the hot scoring path can skip the
	// lock entirely while the quarantine is empty (the steady state).
	quar        map[string]struct{}
	quarLen     atomic.Int64
	quarSamples []string
}

// quarSampleCap bounds the surfaced poison-line samples per detector.
const quarSampleCap = 4

// NewDetector wraps a scorer with session-aware streaming state. For
// deployment the scorer should hold a persistent cached inference engine
// (core.BuildScorer constructs those).
func NewDetector(scorer tuning.Scorer, cfg Config) *Detector {
	return &Detector{
		scorer:   scorer,
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*session),
	}
}

// pending records one event's window snapshot between the state pass and
// the verdict pass.
type pending struct {
	sess *session
	idx  int // entry index at snapshot time
	lo   int // window start at snapshot time
	raw  int // scoring-input index of the raw line
	ctx  int // scoring-input index of the context join
	ctxS string
}

// sessUndo snapshots one user's pre-batch session state so a scoring
// failure can roll the batch's mutations back instead of leaving
// zero-scored entries in the windows.
type sessUndo struct {
	user string
	prev *session // map value before the batch (nil = absent)
	len  int      // prev's entry count before the batch
	last int64    // prev's last-event time before the batch
}

// Process consumes events in order and returns one verdict per event.
// Events must be time-ordered per user (the natural log order); distinct
// users interleave freely. On scorer error the batch's session mutations
// are rolled back (events still count in Stats) and the error is
// returned, so a transient failure neither dilutes session aggregates
// with zero scores nor grows windows past their cap — a producer may
// safely retry the same events.
//
// A panicking scorer does not propagate: the panic is recovered, the batch
// bisected to isolate the poison input, which is quarantined (scored at
// QuarantineScore, counted and sampled in Stats, skipped in future
// batches), and the batch commits normally — the detector keeps serving.
func (d *Detector) Process(events []Event) ([]Verdict, error) {
	if len(events) == 0 {
		return nil, nil
	}
	b := d.begin(events)
	// A panicking scorer must not leave the pipeline mutex held and the
	// batch half-applied: roll back before the panic propagates, so a
	// caller that recovers still has a usable detector.
	defer func() {
		if !b.finished {
			b.abort()
		}
	}()
	if err := b.score(); err != nil {
		b.abort()
		return nil, err
	}
	return b.commit(), nil
}

// procBatch is one batch's in-flight state between the sessionize pass
// and the verdict pass. The three phases — begin (sessionize + build
// inputs), score, then commit or abort — are split out so a sharded
// detector can two-phase commit across shards: every shard scores before
// any shard commits, and one shard's failure aborts all of them. begin
// acquires the detector's pipeline mutex; exactly one of commit or abort
// must follow to release it (Go mutexes are not goroutine-affine, so the
// committing goroutine need not be the beginning one).
type procBatch struct {
	d      *Detector
	events []Event
	inputs []string
	pend   []pending
	undos  []sessUndo
	scores []float64

	started, idleClosed int64 // this batch's share, for abort
	hwBefore            int64
	finished            bool // set by commit/abort; guards panic recovery
}

// begin runs pass 1 (under the state lock): sessionize, build scoring
// inputs (deduplicated), snapshot per-user undo state.
func (d *Detector) begin(events []Event) *procBatch {
	d.procMu.Lock()
	b := &procBatch{d: d, events: events}

	d.mu.Lock()
	b.hwBefore = d.highWater // only Process (procMu-serialized) writes it
	b.inputs = make([]string, 0, len(events))
	inputAt := make(map[string]int, len(events))
	intern := func(s string) int {
		if at, ok := inputAt[s]; ok {
			return at
		}
		inputAt[s] = len(b.inputs)
		b.inputs = append(b.inputs, s)
		return len(b.inputs) - 1
	}
	seen := make(map[string]bool)
	b.pend = make([]pending, len(events))
	for i, ev := range events {
		sess := d.sessions[ev.User]
		if !seen[ev.User] {
			seen[ev.User] = true
			u := sessUndo{user: ev.User, prev: sess}
			if sess != nil {
				u.len, u.last = len(sess.entries), sess.last
			}
			b.undos = append(b.undos, u)
		}
		if sess == nil {
			sess = &session{}
			d.sessions[ev.User] = sess
			b.started++
		} else if len(sess.entries) > 0 && ev.Time-sess.last > d.cfg.IdleTimeout {
			// Idle gap: close the session, open a fresh one. The old
			// object stays reachable from earlier pendings in this batch.
			sess = &session{}
			d.sessions[ev.User] = sess
			b.idleClosed++
			b.started++
		}
		sess.last = ev.Time
		sess.entries = append(sess.entries, entry{time: ev.Time, line: ev.Line})
		idx := len(sess.entries) - 1
		lo := idx + 1 - d.cfg.MaxSessionLines
		if lo < 0 {
			lo = 0
		}
		ctxS := d.contextJoin(sess, idx)
		b.pend[i] = pending{
			sess: sess, idx: idx, lo: lo,
			raw: intern(ev.Line), ctx: intern(ctxS), ctxS: ctxS,
		}
		if ev.Time > d.highWater {
			d.highWater = ev.Time
		}
	}

	d.stats.SessionsStarted += b.started
	d.stats.SessionsIdleClosed += b.idleClosed
	d.stats.ScoredInputs += int64(len(b.inputs))
	d.stats.Events += int64(len(events))
	d.mu.Unlock()
	return b
}

// score runs pass 2 (no state lock, so Stats/EvictIdle stay responsive):
// one batched scoring call for the whole request, hardened against a
// panicking scorer. Inputs already in quarantine are served the quarantine
// score without touching the scorer; a panic on the rest is recovered and
// the batch bisected to isolate the poison input (see scoreResilient).
// Plain scorer errors still abort the whole batch — they are transient and
// retryable, unlike a reproducible panic.
func (b *procBatch) score() error {
	d := b.d
	scores := make([]float64, len(b.inputs))
	live, liveIdx := b.inputs, []int(nil)
	if d.quarLen.Load() > 0 {
		live = make([]string, 0, len(b.inputs))
		liveIdx = make([]int, 0, len(b.inputs))
		var hits int64
		d.mu.Lock()
		for i, in := range b.inputs {
			if _, poison := d.quar[in]; poison {
				scores[i] = d.cfg.QuarantineScore
				hits++
				continue
			}
			live = append(live, in)
			liveIdx = append(liveIdx, i)
		}
		d.stats.QuarantineHits += hits
		d.mu.Unlock()
	}
	if len(live) > 0 {
		out := scores
		if liveIdx != nil {
			out = make([]float64, len(live))
		}
		if err := d.scoreResilient(live, out); err != nil {
			return fmt.Errorf("stream: scoring %d inputs: %w", len(b.inputs), err)
		}
		if liveIdx != nil {
			for k, i := range liveIdx {
				scores[i] = out[k]
			}
		}
	}
	b.scores = scores
	return nil
}

// callScorer invokes the scorer once, converting a panic into a flagged
// error so the pipeline can tell a crashing replica (isolate the poison)
// from a failing one (abort and retry). It also normalizes the
// wrong-length-result bug class into an error.
func callScorer(sc tuning.Scorer, inputs []string) (scores []float64, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			scores, err, panicked = nil, fmt.Errorf("scorer panic: %v", r), true
		}
	}()
	scores, err = sc.Score(inputs)
	if err == nil && len(scores) != len(inputs) {
		err = fmt.Errorf("returned %d scores for %d inputs", len(scores), len(inputs))
	}
	return scores, err, false
}

// scoreResilient scores inputs into out (same length), recovering scorer
// panics: a panicking batch is bisected until the poison input is isolated,
// quarantined (counter + sample in Stats, remembered so future batches skip
// it), and given the quarantine score — the shard keeps serving. A panic
// that does not reproduce on the isolated input (a transient crash) costs
// one retry and quarantines nothing. Non-panic errors abort the whole
// batch, preserving the transient-failure retry contract.
func (d *Detector) scoreResilient(inputs []string, out []float64) error {
	sc := d.scorer // stable: procMu is held for the whole batch
	scores, err, panicked := callScorer(sc, inputs)
	if !panicked {
		if err != nil {
			return err
		}
		copy(out, scores)
		return nil
	}
	d.notePanic()
	return d.bisect(sc, inputs, out)
}

// bisect recursively splits a panicking batch to isolate poison inputs.
// Cost is O(log n) scorer calls per poison line, paid once: quarantined
// inputs never reach the scorer again.
func (d *Detector) bisect(sc tuning.Scorer, inputs []string, out []float64) error {
	if len(inputs) == 1 {
		// Retry once before condemning: only a reproducible panic
		// quarantines; a transient one just scores on the retry.
		scores, err, panicked := callScorer(sc, inputs)
		if panicked {
			d.notePanic()
			d.quarantine(inputs[0])
			out[0] = d.cfg.QuarantineScore
			return nil
		}
		if err != nil {
			return err
		}
		out[0] = scores[0]
		return nil
	}
	mid := len(inputs) / 2
	for _, h := range [2][2]int{{0, mid}, {mid, len(inputs)}} {
		in, o := inputs[h[0]:h[1]], out[h[0]:h[1]]
		scores, err, panicked := callScorer(sc, in)
		if panicked {
			d.notePanic()
			if err := d.bisect(sc, in, o); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		copy(o, scores)
	}
	return nil
}

// notePanic counts one recovered scorer panic. Like the quarantine set,
// this is cumulative operational knowledge, deliberately not rolled back
// when a batch later aborts.
func (d *Detector) notePanic() {
	d.mu.Lock()
	d.stats.ScorerPanics++
	d.mu.Unlock()
}

// quarantine remembers a poison input (bounded by MaxQuarantine) and
// records the counter + sample surfaced in Stats.
func (d *Detector) quarantine(input string) {
	d.mu.Lock()
	d.stats.QuarantinedInputs++
	if d.quar == nil {
		d.quar = make(map[string]struct{})
	}
	if _, dup := d.quar[input]; !dup && len(d.quar) < d.cfg.MaxQuarantine {
		d.quar[input] = struct{}{}
		d.quarLen.Store(int64(len(d.quar)))
	}
	if len(d.quarSamples) >= quarSampleCap {
		copy(d.quarSamples, d.quarSamples[1:])
		d.quarSamples = d.quarSamples[:quarSampleCap-1]
	}
	d.quarSamples = append(d.quarSamples, input)
	d.mu.Unlock()
}

// abort rolls the batch's session mutations back; the failed events still
// count in Events, everything else reverts by delta (a concurrent
// EvictIdle between the passes keeps its own increments).
func (b *procBatch) abort() {
	d := b.d
	d.mu.Lock()
	d.highWater = b.hwBefore
	d.stats.SessionsStarted -= b.started
	d.stats.SessionsIdleClosed -= b.idleClosed
	d.stats.ScoredInputs -= int64(len(b.inputs))
	for _, u := range b.undos {
		if u.prev == nil {
			delete(d.sessions, u.user)
			continue
		}
		d.sessions[u.user] = u.prev
		u.prev.entries = u.prev.entries[:u.len]
		u.prev.last = u.last
	}
	d.mu.Unlock()
	b.finished = true
	d.procMu.Unlock()
}

// commit runs pass 3 (state lock again): fill window scores in order,
// aggregate, emit verdicts.
func (b *procBatch) commit() []Verdict {
	d := b.d
	d.mu.Lock()
	out := make([]Verdict, len(b.events))
	for i, ev := range b.events {
		p := b.pend[i]
		ctxScore := b.scores[p.ctx]
		p.sess.entries[p.idx].score = ctxScore
		v := Verdict{
			User: ev.User, Time: ev.Time, Line: ev.Line,
			LineScore:    b.scores[p.raw],
			ContextScore: ctxScore,
			SessionLines: p.idx - p.lo + 1,
		}
		if p.ctx != p.raw {
			v.Context = p.ctxS
		}
		v.SessionScore = d.aggregate(p.sess.entries[p.lo : p.idx+1])
		if d.cfg.LineThreshold > 0 && v.LineScore >= d.cfg.LineThreshold {
			v.LineAlert = true
			d.stats.LineAlerts++
		}
		if d.cfg.SessionThreshold > 0 && v.SessionScore >= d.cfg.SessionThreshold {
			v.SessionAlert = true
			d.stats.SessionAlerts++
		}
		out[i] = v
	}

	// Trim windows the batch grew past the cap (deferred so within-batch
	// snapshots kept stable indices). The shift is in place — snapshots
	// are not read after this point — so a saturated session reuses its
	// backing array instead of allocating per event.
	for _, p := range b.pend {
		if over := len(p.sess.entries) - d.cfg.MaxSessionLines; over > 0 {
			n := copy(p.sess.entries, p.sess.entries[over:])
			p.sess.entries = p.sess.entries[:n]
		}
	}
	d.mu.Unlock()
	b.finished = true
	d.procMu.Unlock()
	return out
}

// contextJoin builds the §IV-C multi-line input for the entry at idx: up
// to ContextWindow-1 preceding window lines whose consecutive gaps stay
// within ContextGap, joined with the shell separator — the online
// equivalent of tuning.BuildContexts.
func (d *Detector) contextJoin(sess *session, idx int) string {
	if d.cfg.ContextWindow <= 1 {
		return sess.entries[idx].line
	}
	// Context never reaches past the sliding window: lines evicted by the
	// max-length cap are gone for context purposes too.
	floor := idx + 1 - d.cfg.MaxSessionLines
	if floor < 0 {
		floor = 0
	}
	lo := idx
	last := sess.entries[idx].time
	for lo > floor && idx-lo < d.cfg.ContextWindow-1 {
		if last-sess.entries[lo-1].time > d.cfg.ContextGap {
			break
		}
		lo--
		last = sess.entries[lo].time
	}
	if lo == idx {
		return sess.entries[idx].line
	}
	parts := make([]string, 0, idx-lo+1)
	for k := lo; k <= idx; k++ {
		parts = append(parts, sess.entries[k].line)
	}
	return strings.Join(parts, " ; ")
}

// aggregate folds window scores into the session score.
func (d *Detector) aggregate(window []entry) float64 {
	switch d.cfg.Aggregation {
	case AggMean:
		sum := 0.0
		for _, e := range window {
			sum += e.score
		}
		return sum / float64(len(window))
	case AggDecay:
		w, num, den := 1.0, 0.0, 0.0
		for k := len(window) - 1; k >= 0; k-- {
			num += w * window[k].score
			den += w
			w *= d.cfg.Decay
		}
		return num / den
	default: // AggMax
		best := window[0].score
		for _, e := range window[1:] {
			if e.score > best {
				best = e.score
			}
		}
		return best
	}
}

// SwapScorer atomically replaces the detector's scorer, tagging it with an
// artifact version (surfaced in Stats). It acquires the pipeline mutex, so
// it waits for any in-flight Process batch to commit and the next batch
// scores entirely on the new scorer — no event is ever scored half-old /
// half-new, and nothing queued is dropped. Session state (windows,
// aggregates, counters) is deliberately kept: scores already committed
// under the old scorer stay in their windows, exactly as a drift-refresh
// deployment wants.
//
// The swap is off the hot path: callers should finish the expensive part —
// loading and replicating the new scorer — before calling.
func (d *Detector) SwapScorer(s tuning.Scorer, version string) {
	d.procMu.Lock()
	// Both locks: Process reads the scorer under procMu, while off-path
	// readers (Stats' cache probe) read it under the state lock.
	d.mu.Lock()
	d.scorer = s
	d.version = version
	d.mu.Unlock()
	d.procMu.Unlock()
}

// scorerRef returns the active scorer under the state lock — the accessor
// for readers outside the Process pipeline, which must not race a
// SwapScorer in flight.
func (d *Detector) scorerRef() tuning.Scorer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.scorer
}

// ScorerVersion returns the active scorer's artifact version.
func (d *Detector) ScorerVersion() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// SetModality stamps the log modality the detector serves (surfaced in
// Stats). Unlike the version it never changes over a detector's life:
// hot-reload rejects modality-mismatched bundles before any swap.
func (d *Detector) SetModality(m string) {
	d.mu.Lock()
	d.modality = m
	d.mu.Unlock()
}

// Modality returns the stamped log modality.
func (d *Detector) Modality() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.modality
}

// EvictIdle removes sessions whose last event is more than IdleTimeout
// seconds before now, bounding memory across a large user population, and
// returns how many were evicted. Services call it periodically with the
// stream's high-water event time.
func (d *Detector) EvictIdle(now int64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for user, sess := range d.sessions {
		if now-sess.last > d.cfg.IdleTimeout {
			delete(d.sessions, user)
			n++
		}
	}
	d.stats.SessionsEvicted += int64(n)
	return n
}

// HighWater returns the latest event time seen, the clock EvictIdle
// sweeps should use: on live traffic it tracks wall time, on replayed or
// backfilled streams it keeps historical sessions alive instead of
// evicting them against the real clock.
func (d *Detector) HighWater() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.highWater
}

// Stats returns a counter snapshot.
func (d *Detector) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.ActiveSessions = len(d.sessions)
	s.ScorerVersion = d.version
	s.Modality = d.modality
	s.QuarantineSample = append([]string(nil), d.quarSamples...)
	if cs, ok := d.scorer.(tuning.CascadeStatser); ok {
		snap := cs.CascadeStats()
		s.Cascade = &snap
	}
	return s
}

// Config returns the detector's resolved configuration.
func (d *Detector) Config() Config { return d.cfg }
