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
//     events as one atomic batch, updates session state, and returns one
//     Verdict per event. Scoring inside a batch is deduplicated and issued
//     as a single Score call, so the engine's batching and cache do the
//     heavy lifting.
//   - Service (service.go): the asynchronous front over a ShardedDetector.
//     Per-shard bounded queues with backpressure, one coalescing worker per
//     shard that merges small requests into full scoring batches (each one
//     Detector.Process), and a graceful drain on Close.
//
// Session semantics: a session is a per-user run of events whose
// event-time gaps stay within IdleTimeout; a larger gap closes the session
// and starts a fresh one. Within a session, only the most recent
// MaxSessionLines events are retained (sliding window). SessionWindow's
// Append is the one implementation of these rules, shared by the
// detector, checkpoint restore and the fleet router's shadows. When ContextWindow
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
	// Cumulative resilience knowledge: kept even when the batch fails.
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

// addCounters adds o's cumulative counters into s: how shards sum into a
// service total and how a restore folds checkpointed counters back in.
func (s *Stats) addCounters(o Stats) {
	s.Events += o.Events
	s.ScoredInputs += o.ScoredInputs
	s.LineAlerts += o.LineAlerts
	s.SessionAlerts += o.SessionAlerts
	s.SessionsStarted += o.SessionsStarted
	s.SessionsIdleClosed += o.SessionsIdleClosed
	s.SessionsEvicted += o.SessionsEvicted
	s.ScorerPanics += o.ScorerPanics
	s.QuarantinedInputs += o.QuarantinedInputs
	s.QuarantineHits += o.QuarantineHits
}

// WindowEntry is one window line with its committed context score, so a
// session aggregate (live, restored, or rebuilt by the fleet router from
// the verdicts it has seen: Verdict carries Time, Line, ContextScore)
// resumes exactly where it left off.
type WindowEntry struct {
	// Time is the event time of the line, in Unix seconds.
	Time int64
	// Line is the raw command line.
	Line string
	// Score is the committed context score of the line — what entered the
	// session aggregate.
	Score float64
}

// SessionWindow is one user's sliding window: the detector's live session,
// a checkpoint record, and the fleet router's shadow of a replica's
// session are all this type, kept by the same Append rules.
type SessionWindow struct {
	// User keys the session.
	User string
	// Last is the time of the user's most recent event.
	Last int64
	// Entries is the retained window, oldest first. An imported
	// SessionWindow with no entries removes the user's session — the
	// clear-on-handoff case.
	Entries []WindowEntry
}

// Append folds one line into the window under cfg's session rules: an
// event-time gap over IdleTimeout since Last empties the window (the
// session closes and a fresh one starts), the entry appends, and the
// window trims to its newest MaxSessionLines. cfg must be resolved, as
// Detector.Config and the /stats config are. Reports whether the gap
// closed a session.
func (w *SessionWindow) Append(e WindowEntry, cfg Config) (closed bool) {
	if len(w.Entries) > 0 && e.Time-w.Last > cfg.IdleTimeout {
		w.Entries, closed = w.Entries[:0], true
	}
	w.Last = e.Time
	w.Entries = append(w.Entries, e)
	if over := len(w.Entries) - cfg.MaxSessionLines; over > 0 {
		n := copy(w.Entries, w.Entries[over:])
		w.Entries = w.Entries[:n]
	}
	return closed
}

// tail copies the newest n lines of w (nil: no session yet) into a
// scratch window a batch's context joins can grow without touching w.
func (w *SessionWindow) tail(n int) *SessionWindow {
	t := &SessionWindow{Entries: make([]WindowEntry, 0, n+1)}
	if w != nil {
		t.Last = w.Last
		t.Entries = append(t.Entries, w.Entries[max(0, len(w.Entries)-n):]...)
	}
	return t
}

// Detector is the synchronous streaming core. Methods are safe for
// concurrent use; Process calls serialize on a pipeline mutex (scoring
// parallelism lives inside the engine-backed scorer, not across batches),
// which also keeps per-user event order deterministic. Session and
// counter state sits behind a separate short-lived mutex so Stats and
// checkpoint snapshots never block behind an in-flight scoring call.
type Detector struct {
	scorer tuning.Scorer
	cfg    Config

	procMu sync.Mutex // serializes Process end to end

	mu        sync.Mutex // guards sessions + stats, never held while scoring
	sessions  map[string]*SessionWindow
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
		sessions: make(map[string]*SessionWindow),
	}
}

// pending is one event's scoring-input indices between the sessionize
// pass and the commit pass.
type pending struct {
	raw, ctx int    // scoring-input indices of the raw line and its context join
	ctxS     string // the context join, when one was attached
}

// Process consumes events in order and returns one verdict per event, as
// one atomic batch. Events must be time-ordered per user (the natural log
// order); distinct users interleave freely. Session windows change only
// once the whole batch has scored, so on scorer error only the Events
// counter moves and the error is returned: a transient failure neither
// dilutes session aggregates with zero scores nor grows windows past their
// cap, and a producer may safely retry the same events.
//
// A panicking scorer does not propagate: the panic is recovered, the batch
// bisected to isolate the poison input, which is quarantined (scored at
// QuarantineScore, counted and sampled in Stats, skipped in future
// batches), and the batch commits normally — the detector keeps serving.
func (d *Detector) Process(events []Event) ([]Verdict, error) {
	if len(events) == 0 {
		return nil, nil
	}
	d.procMu.Lock()
	defer d.procMu.Unlock()
	inputs, pend := d.sessionize(events)
	scores, err := d.score(inputs)
	if err != nil {
		return nil, err
	}
	return d.commit(events, pend, scores), nil
}

// sessionize runs pass 1 under the state lock: it builds each event's
// scoring inputs (deduplicated), the raw line and, when ContextWindow > 1,
// its §IV-C context join. Session windows are only read: the join comes
// from a per-batch copy of each user's window tail that follows the same
// SessionWindow.Append rules, so a failed batch has nothing to undo.
func (d *Detector) sessionize(events []Event) ([]string, []pending) {
	inputs := make([]string, 0, len(events))
	inputAt := make(map[string]int, len(events))
	intern := func(s string) int {
		if at, ok := inputAt[s]; ok {
			return at
		}
		inputAt[s] = len(inputs)
		inputs = append(inputs, s)
		return len(inputs) - 1
	}
	// A join reaches back at most ContextWindow lines and never past the
	// sliding window, so a tail that long is all it needs.
	tailCfg := d.cfg
	tailCfg.MaxSessionLines = min(d.cfg.ContextWindow, d.cfg.MaxSessionLines)
	var tails map[string]*SessionWindow
	if d.cfg.ContextWindow > 1 {
		tails = make(map[string]*SessionWindow)
	}
	pend := make([]pending, len(events))

	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Events += int64(len(events))
	for i, ev := range events {
		p := pending{raw: intern(ev.Line)}
		p.ctx = p.raw
		if d.cfg.ContextWindow > 1 {
			tail := tails[ev.User]
			if tail == nil {
				tail = d.sessions[ev.User].tail(tailCfg.MaxSessionLines)
				tails[ev.User] = tail
			}
			tail.Append(WindowEntry{Time: ev.Time, Line: ev.Line}, tailCfg)
			if p.ctxS = d.contextJoin(tail.Entries); p.ctxS != "" {
				p.ctx = intern(p.ctxS)
			}
		}
		pend[i] = p
	}
	return inputs, pend
}

// contextJoin builds the §IV-C multi-line input for the newest line of a
// sessionize tail: preceding lines attach while consecutive gaps stay
// within ContextGap, joined with the shell separator — the online
// equivalent of tuning.BuildContexts. Empty when nothing attaches.
func (d *Detector) contextJoin(tail []WindowEntry) string {
	lo := len(tail) - 1
	for lo > 0 && tail[lo].Time-tail[lo-1].Time <= d.cfg.ContextGap {
		lo--
	}
	if lo == len(tail)-1 {
		return ""
	}
	parts := make([]string, 0, len(tail)-lo)
	for _, e := range tail[lo:] {
		parts = append(parts, e.Line)
	}
	return strings.Join(parts, " ; ")
}

// score runs pass 2 (no state lock, so Stats stays responsive): one
// batched scoring call for the whole request, hardened against a panicking
// scorer. Inputs already in quarantine are served the quarantine score
// without touching the scorer; a panic on the rest is recovered and the
// batch bisected to isolate the poison input (see scoreResilient). Plain
// scorer errors still fail the whole batch — they are transient and
// retryable, unlike a reproducible panic.
func (d *Detector) score(inputs []string) ([]float64, error) {
	scores := make([]float64, len(inputs))
	live, liveIdx := inputs, []int(nil)
	if d.quarLen.Load() > 0 {
		live = make([]string, 0, len(inputs))
		liveIdx = make([]int, 0, len(inputs))
		var hits int64
		d.mu.Lock()
		for i, in := range inputs {
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
			return nil, fmt.Errorf("stream: scoring %d inputs: %w", len(inputs), err)
		}
		for k, i := range liveIdx {
			scores[i] = out[k]
		}
	}
	return scores, nil
}

// callScorer invokes the scorer once, converting a panic into a flagged
// error so the pipeline can tell a crashing replica (isolate the poison)
// from a failing one (fail the batch for a retry). It also normalizes the
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
// one retry and quarantines nothing. Non-panic errors fail the whole
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
// this is cumulative operational knowledge, kept even when the batch
// later fails.
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

// commit runs pass 3 (state lock again): append each event's scored line
// to its user's window, aggregate, and emit the verdicts in order.
func (d *Detector) commit(events []Event, pend []pending, scores []float64) []Verdict {
	out := make([]Verdict, len(events))
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.ScoredInputs += int64(len(scores))
	for i, ev := range events {
		p := pend[i]
		sess := d.sessions[ev.User]
		if sess == nil {
			sess = &SessionWindow{User: ev.User}
			d.sessions[ev.User] = sess
			d.stats.SessionsStarted++
		}
		if sess.Append(WindowEntry{Time: ev.Time, Line: ev.Line, Score: scores[p.ctx]}, d.cfg) {
			d.stats.SessionsIdleClosed++
			d.stats.SessionsStarted++
		}
		d.highWater = max(d.highWater, ev.Time)
		v := Verdict{
			User: ev.User, Time: ev.Time, Line: ev.Line, Context: p.ctxS,
			LineScore:    scores[p.raw],
			ContextScore: scores[p.ctx],
			SessionScore: d.aggregate(sess.Entries),
			SessionLines: len(sess.Entries),
		}
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
	return out
}

// aggregate folds window scores into the session score.
func (d *Detector) aggregate(window []WindowEntry) float64 {
	switch d.cfg.Aggregation {
	case AggMean:
		sum := 0.0
		for _, e := range window {
			sum += e.Score
		}
		return sum / float64(len(window))
	case AggDecay:
		w, num, den := 1.0, 0.0, 0.0
		for k := len(window) - 1; k >= 0; k-- {
			num += w * window[k].Score
			den += w
			w *= d.cfg.Decay
		}
		return num / den
	default: // AggMax
		best := window[0].Score
		for _, e := range window[1:] {
			if e.Score > best {
				best = e.Score
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
// stream's high-water event time. It waits for an in-flight batch to
// commit, so a sweep never lands between a batch's passes.
func (d *Detector) EvictIdle(now int64) int {
	d.procMu.Lock()
	defer d.procMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for user, sess := range d.sessions {
		if now-sess.Last > d.cfg.IdleTimeout {
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
