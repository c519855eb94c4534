package preprocess

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"clmids/internal/modality"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := New(Config{MinCommandFreq: 2})
	p.Fit([]string{"ls", "ls", "cat f", "cat g", "rareonce x"})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, line := range []string{"ls -la", "cat h", "rareonce y", "( bad"} {
		_, r1 := p.Check(line)
		_, r2 := loaded.Check(line)
		if r1 != r2 {
			t.Errorf("Check(%q) differs after load: %v vs %v", line, r1, r2)
		}
	}
	f1, f2 := p.Frequencies(), loaded.Frequencies()
	if len(f1) != len(f2) {
		t.Fatalf("frequency tables differ: %v vs %v", f1, f2)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{}")); err == nil {
		t.Error("wrong format accepted")
	}
	if _, err := Load(strings.NewReader("nope")); err == nil {
		t.Error("non-JSON accepted")
	}
	// An unregistered modality is a load error, not a panic inside New.
	unknown := `{"format":"clmids-preprocess v1","config":{"Modality":"xyz"}}`
	if _, err := Load(strings.NewReader(unknown)); !errors.Is(err, modality.ErrUnknown) {
		t.Errorf("unknown modality: Load = %v, want modality.ErrUnknown", err)
	}
}
