package corpus

import (
	"strings"
	"testing"

	"clmids/internal/modality"
	"clmids/internal/shell"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TrainLines = 1500
	cfg.TestLines = 800
	return cfg
}

func TestGenerateSizes(t *testing.T) {
	train, test, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Samples) < 1500 || len(train.Samples) > 1600 {
		t.Errorf("train size %d outside expected band", len(train.Samples))
	}
	if len(test.Samples) < 800 || len(test.Samples) > 900 {
		t.Errorf("test size %d outside expected band", len(test.Samples))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t1, _, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Samples) != len(t2.Samples) {
		t.Fatalf("sizes differ: %d vs %d", len(t1.Samples), len(t2.Samples))
	}
	for i := range t1.Samples {
		if t1.Samples[i] != t2.Samples[i] {
			t.Fatalf("sample %d differs:\n%+v\n%+v", i, t1.Samples[i], t2.Samples[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TrainLines = 0 },
		func(c *Config) { c.TestLines = -1 },
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.IntrusionRate = 1.5 },
		func(c *Config) { c.OutOfBoxFrac = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLabelDistribution(t *testing.T) {
	train, test, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Dataset{"train": train, "test": test} {
		intr := d.CountLabel(Intrusion)
		if intr == 0 {
			t.Errorf("%s: no intrusions generated", name)
		}
		frac := float64(intr) / float64(len(d.Samples))
		if frac > 0.15 {
			t.Errorf("%s: intrusions are %0.1f%%, should be rare", name, 100*frac)
		}
		if d.CountLabel(Benign)+intr != len(d.Samples) {
			t.Errorf("%s: labels do not partition the dataset", name)
		}
	}
	// The test split must contain out-of-box intrusions (the PO metric's
	// denominator) and the train split should contain mostly in-box ones.
	if test.CountOutOfBox() == 0 {
		t.Error("test split has no out-of-box intrusions")
	}
	trainIntr := train.CountLabel(Intrusion)
	if trainIntr > 0 {
		oobFrac := float64(train.CountOutOfBox()) / float64(trainIntr)
		if oobFrac > 0.5 {
			t.Errorf("train split out-of-box fraction %.2f too high", oobFrac)
		}
	}
}

func TestGarbageLinesAreInvalidAndOthersParse(t *testing.T) {
	train, _, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	garbage, valid := 0, 0
	for _, s := range train.Samples {
		if s.Family == "garbage" {
			garbage++
			if shell.Valid(s.Line) {
				t.Errorf("garbage line parses: %q", s.Line)
			}
			continue
		}
		valid++
		if !shell.Valid(s.Line) {
			t.Errorf("non-garbage line does not parse: %q (family %s)", s.Line, s.Family)
		}
	}
	if garbage == 0 {
		t.Error("no garbage lines generated")
	}
	if valid == 0 {
		t.Error("no valid lines generated")
	}
}

func TestTypoLinesUseLowFrequencyNames(t *testing.T) {
	train, _, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Typo command names must never collide with the legitimate set.
	legit := make(map[string]bool)
	for _, n := range modality.ShellBenignCommandNames() {
		legit[n] = true
	}
	sawTypo := false
	for _, s := range train.Samples {
		if s.Family != "typo" {
			continue
		}
		sawTypo = true
		ast, err := shell.Parse(s.Line)
		if err != nil {
			t.Fatalf("typo line must still parse: %q: %v", s.Line, err)
		}
		name := ast.FirstCommand()
		if legit[name] {
			t.Errorf("typo line %q uses legitimate command %q", s.Line, name)
		}
	}
	if !sawTypo {
		t.Error("no typo lines generated")
	}
}

func TestChainAttacksShareChainID(t *testing.T) {
	cfg := smallConfig()
	cfg.TrainLines = 6000 // enough sessions to hit the chain variant
	cfg.IntrusionRate = 0.1
	cfg.OutOfBoxFrac = 0.9
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chains := make(map[int][]Sample)
	for _, s := range train.Samples {
		if s.ChainID != 0 {
			chains[s.ChainID] = append(chains[s.ChainID], s)
		}
	}
	if len(chains) == 0 {
		t.Fatal("no chain attacks generated")
	}
	for id, lines := range chains {
		if len(lines) < 2 {
			t.Errorf("chain %d has %d lines, want >= 2", id, len(lines))
		}
		for _, s := range lines {
			if s.User != lines[0].User {
				t.Errorf("chain %d spans users", id)
			}
			if s.Label != Intrusion {
				t.Errorf("chain %d contains non-intrusion line", id)
			}
		}
	}
}

func TestSamplesAreTimestampOrdered(t *testing.T) {
	train, test, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Dataset{"train": train, "test": test} {
		for i := 1; i < len(d.Samples); i++ {
			if d.Samples[i].Time < d.Samples[i-1].Time {
				t.Fatalf("%s: timestamps out of order at %d", name, i)
			}
		}
	}
}

func TestTableIIIPairs(t *testing.T) {
	pairs := TableIIIPairs()
	if len(pairs) != 6 {
		t.Fatalf("TableIII pairs = %d, want 6", len(pairs))
	}
	for i, p := range pairs {
		if p[0] == "" || p[1] == "" {
			t.Errorf("pair %d incomplete: %q / %q", i, p[0], p[1])
		}
	}
	// Spot-check the signature patterns from the paper.
	joined := ""
	for _, p := range pairs {
		joined += p[0] + "\n" + p[1] + "\n"
	}
	for _, want := range []string{"nc -lvnp", "nc -ulp", "masscan", "/root/masscan.sh",
		"bash -i >&", "https_proxy", "socks5", "base64", "python3", "-o python"} {
		if !strings.Contains(joined, want) {
			t.Errorf("TableIII output missing %q", want)
		}
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := &Dataset{Samples: []Sample{
		{Line: "a", Label: Benign},
		{Line: "b", Label: Intrusion, InBox: true},
		{Line: "c", Label: Intrusion, InBox: false},
	}}
	if got := d.Lines(); len(got) != 3 || got[2] != "c" {
		t.Errorf("Lines = %v", got)
	}
	if d.CountLabel(Intrusion) != 2 || d.CountLabel(Benign) != 1 {
		t.Error("CountLabel wrong")
	}
	if d.CountOutOfBox() != 1 {
		t.Error("CountOutOfBox wrong")
	}
	if Benign.String() != "benign" || Intrusion.String() != "intrusion" {
		t.Error("Label.String wrong")
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := smallConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
