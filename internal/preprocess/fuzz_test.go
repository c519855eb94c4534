package preprocess

import (
	"bytes"
	"testing"
)

// FuzzPreprocessLoad: Load either rejects preprocess.json bytes with an
// error or accepts a state that Save writes and that Load and Save again
// reproduce byte for byte. It never panics. Seeds (testdata/fuzz) hold a
// fitted filter's saved state and a state naming an unregistered modality.
func FuzzPreprocessLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := p.Save(&first); err != nil {
			t.Fatalf("Save of a loaded filter: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load of a saved filter: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatalf("second Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save, Load, Save changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
