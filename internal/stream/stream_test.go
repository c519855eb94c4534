package stream

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// stubScorer scores lines by table lookup (default def), counting calls.
type stubScorer struct {
	scores map[string]float64
	def    float64
	calls  int
	inputs int
}

func (s *stubScorer) Score(lines []string) ([]float64, error) {
	s.calls++
	s.inputs += len(lines)
	out := make([]float64, len(lines))
	for i, l := range lines {
		if v, ok := s.scores[l]; ok {
			out[i] = v
		} else {
			out[i] = s.def
		}
	}
	return out, nil
}

type errScorer struct{}

func (errScorer) Score([]string) ([]float64, error) {
	return nil, fmt.Errorf("boom")
}

func ev(user string, t int64, line string) Event {
	return Event{User: user, Time: t, Line: line}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAggregations(t *testing.T) {
	stub := &stubScorer{scores: map[string]float64{"a": 0.2, "b": 0.8, "c": 0.5}}
	events := []Event{ev("u", 10, "a"), ev("u", 20, "b"), ev("u", 30, "c")}

	for _, tc := range []struct {
		agg  Aggregation
		want float64 // session score after the third event
	}{
		{AggMax, 0.8},
		{AggMean, (0.2 + 0.8 + 0.5) / 3},
		// decay 0.7, newest first: (0.5·1 + 0.8·0.7 + 0.2·0.49)/(2.19)
		{AggDecay, (0.5 + 0.8*0.7 + 0.2*0.49) / 2.19},
	} {
		cfg := DefaultConfig()
		cfg.Aggregation = tc.agg
		det := NewDetector(stub, cfg)
		vs, err := det.Process(events)
		if err != nil {
			t.Fatal(err)
		}
		if got := vs[2].SessionScore; !almost(got, tc.want) {
			t.Errorf("%v: session score %.6f, want %.6f", tc.agg, got, tc.want)
		}
		if vs[2].SessionLines != 3 {
			t.Errorf("%v: session lines %d, want 3", tc.agg, vs[2].SessionLines)
		}
	}
}

// TestIdleTimeoutStartsNewSession: an event-time gap larger than
// IdleTimeout closes the session; the next event starts a fresh window.
func TestIdleTimeoutStartsNewSession(t *testing.T) {
	stub := &stubScorer{scores: map[string]float64{"hot": 1.0}, def: 0.0}
	cfg := DefaultConfig()
	cfg.IdleTimeout = 100
	cfg.Aggregation = AggMax
	det := NewDetector(stub, cfg)

	vs, err := det.Process([]Event{
		ev("u", 0, "hot"),
		ev("u", 50, "cold"),
		ev("u", 151, "cold"), // gap 101 > 100: new session
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs[1].SessionScore != 1.0 || vs[1].SessionLines != 2 {
		t.Fatalf("pre-timeout verdict: score %v lines %d", vs[1].SessionScore, vs[1].SessionLines)
	}
	if vs[2].SessionScore != 0.0 || vs[2].SessionLines != 1 {
		t.Fatalf("post-timeout verdict: score %v lines %d (window should reset)", vs[2].SessionScore, vs[2].SessionLines)
	}
	st := det.Stats()
	if st.SessionsStarted != 2 || st.SessionsIdleClosed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMaxLengthEviction: the sliding window drops the oldest line, so an
// old high score eventually leaves the session aggregate.
func TestMaxLengthEviction(t *testing.T) {
	stub := &stubScorer{scores: map[string]float64{"hot": 1.0}, def: 0.0}
	cfg := DefaultConfig()
	cfg.MaxSessionLines = 3
	cfg.Aggregation = AggMax
	det := NewDetector(stub, cfg)

	events := []Event{ev("u", 1, "hot")}
	for i := 2; i <= 5; i++ {
		events = append(events, ev("u", int64(i), "cold"))
	}
	vs, err := det.Process(events)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: [hot] [hot c] [hot c c] [c c c] [c c c]
	wantScores := []float64{1, 1, 1, 0, 0}
	wantLines := []int{1, 2, 3, 3, 3}
	for i, v := range vs {
		if v.SessionScore != wantScores[i] || v.SessionLines != wantLines[i] {
			t.Errorf("event %d: score %v lines %d, want %v %d",
				i, v.SessionScore, v.SessionLines, wantScores[i], wantLines[i])
		}
	}
	// The same holds when events arrive one at a time (trim between calls).
	det2 := NewDetector(stub, cfg)
	for i, e := range events {
		v, err := det2.Process([]Event{e})
		if err != nil {
			t.Fatal(err)
		}
		if v[0].SessionScore != wantScores[i] || v[0].SessionLines != wantLines[i] {
			t.Errorf("incremental event %d: score %v lines %d, want %v %d",
				i, v[0].SessionScore, v[0].SessionLines, wantScores[i], wantLines[i])
		}
	}
}

// TestContextJoinMatchesBuildContexts: the detector's scoring inputs
// equal BuildContexts over the same log however the log is split into two
// batches. The log crosses IdleTimeout (a closed session attaches nothing)
// and runs one user past MaxSessionLines.
func TestContextJoinMatchesBuildContexts(t *testing.T) {
	events := []Event{
		ev("a", 100, "whoami"),
		ev("b", 101, "ls"),
		ev("a", 110, "wget -c http://x/p -o python"),
		ev("a", 115, "python"),
		ev("b", 130, "df -h"),
		ev("b", 700, "id"),        // gap 570: in the context gap
		ev("b", 1400, "uname -a"), // gap 700: past it, same session
		ev("a", 9000, "df -h"),    // past IdleTimeout: a new session
		ev("a", 9001, "ps aux"),
		ev("a", 9002, "who"),
	}
	cfg := DefaultConfig()
	cfg.ContextWindow = 3
	want := BuildContexts(events, cfg)
	if want[3] != "whoami ; wget -c http://x/p -o python ; python" || want[7] != "df -h" {
		t.Fatalf("BuildContexts = %q", want)
	}
	for _, maxLines := range []int{cfg.MaxSessionLines, 2} {
		cfg.MaxSessionLines = maxLines
		want := BuildContexts(events, cfg)
		for split := 0; split <= len(events); split++ {
			det := NewDetector(&stubScorer{}, cfg)
			var got []string
			for _, batch := range [][]Event{events[:split], events[split:]} {
				vs, err := det.Process(batch)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, scoringInputs(vs)...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("MaxSessionLines %d, split at %d: detector inputs\n%q\nBuildContexts\n%q", maxLines, split, got, want)
			}
		}
	}
}

// scoringInputs returns each verdict's context-scored input: the join, or
// the line itself when nothing attached.
func scoringInputs(vs []Verdict) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		if out[i] = v.Context; out[i] == "" {
			out[i] = v.Line
		}
	}
	return out
}

// TestBatchDedup: one Process call issues one Score call whose inputs are
// deduplicated across events.
func TestBatchDedup(t *testing.T) {
	stub := &stubScorer{}
	det := NewDetector(stub, DefaultConfig())
	var events []Event
	for i := 0; i < 50; i++ {
		events = append(events, ev(fmt.Sprintf("u%d", i%5), int64(i), "ls -la"))
	}
	if _, err := det.Process(events); err != nil {
		t.Fatal(err)
	}
	if stub.calls != 1 {
		t.Fatalf("Score calls = %d, want 1", stub.calls)
	}
	if stub.inputs != 1 {
		t.Fatalf("scoring inputs = %d, want 1 (deduplicated)", stub.inputs)
	}
	if st := det.Stats(); st.Events != 50 || st.ScoredInputs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestThresholdAlerts(t *testing.T) {
	stub := &stubScorer{scores: map[string]float64{"bad": 0.95, "meh": 0.6}}
	cfg := DefaultConfig()
	cfg.Aggregation = AggMax
	cfg.LineThreshold = 0.9
	cfg.SessionThreshold = 0.5
	det := NewDetector(stub, cfg)
	vs, err := det.Process([]Event{ev("u", 1, "meh"), ev("u", 2, "bad")})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].LineAlert || !vs[0].SessionAlert {
		t.Fatalf("verdict 0: %+v", vs[0])
	}
	if !vs[1].LineAlert || !vs[1].SessionAlert {
		t.Fatalf("verdict 1: %+v", vs[1])
	}
	if st := det.Stats(); st.LineAlerts != 1 || st.SessionAlerts != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEvictIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleTimeout = 100
	det := NewDetector(&stubScorer{}, cfg)
	if _, err := det.Process([]Event{ev("a", 10, "x"), ev("b", 180, "x")}); err != nil {
		t.Fatal(err)
	}
	if n := det.EvictIdle(200); n != 1 { // only a is idle past 100s
		t.Fatalf("evicted %d, want 1", n)
	}
	st := det.Stats()
	if st.ActiveSessions != 1 || st.SessionsEvicted != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestProcessEmptyAndError(t *testing.T) {
	det := NewDetector(&stubScorer{}, DefaultConfig())
	vs, err := det.Process(nil)
	if err != nil || vs != nil {
		t.Fatalf("empty Process: %v %v", vs, err)
	}
	bad := NewDetector(errScorer{}, DefaultConfig())
	if _, err := bad.Process([]Event{ev("u", 1, "x")}); err == nil {
		t.Fatal("scorer error swallowed")
	}
}

// flakyScorer fails while failing is set, scoring 0 otherwise.
type flakyScorer struct {
	failing bool
}

func (s *flakyScorer) Score(lines []string) ([]float64, error) {
	if s.failing {
		return nil, fmt.Errorf("transient failure")
	}
	return make([]float64, len(lines)), nil
}

// TestScorerErrorRollsBack: a failed batch leaves no trace in session
// windows or session counters — no zero-scored entries diluting later
// aggregates, no windows growing past their cap, no phantom sessions.
func TestScorerErrorRollsBack(t *testing.T) {
	scorer := &flakyScorer{}
	cfg := DefaultConfig()
	cfg.Aggregation = AggMean
	det := NewDetector(scorer, cfg)

	if _, err := det.Process([]Event{ev("u", 1, "a"), ev("u", 2, "b")}); err != nil {
		t.Fatal(err)
	}
	scorer.failing = true
	_, err := det.Process([]Event{ev("u", 3, "c"), ev("u", 4, "d"), ev("newbie", 5, "e")})
	if err == nil {
		t.Fatal("scorer error swallowed")
	}
	scorer.failing = false

	st := det.Stats()
	if st.Events != 5 { // failed events still count as seen
		t.Fatalf("events %d, want 5", st.Events)
	}
	if st.ActiveSessions != 1 || st.SessionsStarted != 1 {
		t.Fatalf("phantom sessions after rollback: %+v", st)
	}
	vs, err := det.Process([]Event{ev("u", 6, "f")})
	if err != nil {
		t.Fatal(err)
	}
	// Window must hold a, b, f only — the failed c and d never joined.
	if vs[0].SessionLines != 3 {
		t.Fatalf("session lines %d after rollback, want 3", vs[0].SessionLines)
	}
}

// panicScorer panics on its first call, then scores normally.
type panicScorer struct {
	panicked bool
}

func (s *panicScorer) Score(lines []string) ([]float64, error) {
	if !s.panicked {
		s.panicked = true
		panic("scorer bug")
	}
	return make([]float64, len(lines)), nil
}

// TestScorerPanicLeavesDetectorUsable: a panicking scorer must not wedge
// the pipeline mutex or escape Process — the detector recovers it, retries
// the input, and commits the batch. A transient panic (one that does not
// reproduce on retry) quarantines nothing.
func TestScorerPanicLeavesDetectorUsable(t *testing.T) {
	det := NewDetector(&panicScorer{}, DefaultConfig())
	vs, err := det.Process([]Event{ev("u", 1, "x")})
	if err != nil || len(vs) != 1 {
		t.Fatalf("panicked batch not recovered: %v %+v", err, vs)
	}
	st := det.Stats()
	if st.ScorerPanics != 1 {
		t.Fatalf("ScorerPanics = %d, want 1", st.ScorerPanics)
	}
	if st.QuarantinedInputs != 0 {
		t.Fatalf("transient panic quarantined %d inputs: %+v", st.QuarantinedInputs, st)
	}
	if st.ActiveSessions != 1 || st.SessionsStarted != 1 {
		t.Fatalf("recovered batch not committed: %+v", st)
	}
	vs, err = det.Process([]Event{ev("u", 2, "y")})
	if err != nil || len(vs) != 1 || vs[0].SessionLines != 2 {
		t.Fatalf("detector unusable after recovered panic: %v %+v", err, vs)
	}
}

func TestHighWater(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleTimeout = 100
	det := NewDetector(&stubScorer{}, cfg)
	if det.HighWater() != 0 {
		t.Fatalf("high water %d before any event", det.HighWater())
	}
	if _, err := det.Process([]Event{ev("a", 50, "x"), ev("b", 400, "x")}); err != nil {
		t.Fatal(err)
	}
	if hw := det.HighWater(); hw != 400 {
		t.Fatalf("high water %d, want 400", hw)
	}
	// Sweeping at the stream's own clock evicts a (idle 350s) but not b.
	if n := det.EvictIdle(det.HighWater()); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
}
