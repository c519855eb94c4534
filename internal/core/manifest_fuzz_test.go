package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"clmids/internal/modality"
)

// FuzzBundleManifest feeds arbitrary manifest.json bytes, seeded under
// testdata/fuzz with float64, int8, cascade and pre-two-rung cascade
// manifests, to parseManifest. It never panics, every refusal is
// ErrBundleCorrupt, ErrBundleUnsupported or modality.ErrUnknown, and an
// accepted manifest re-marshals to bytes that parse back equal.
func FuzzBundleManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, prec, err := parseManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBundleCorrupt) && !errors.Is(err, ErrBundleUnsupported) &&
				!errors.Is(err, modality.ErrUnknown) {
				t.Fatalf("manifest refused with an unclassified error: %v", err)
			}
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		again, againPrec, err := parseManifest(out)
		if err != nil {
			t.Fatalf("re-marshalled manifest refused: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, m) || againPrec != prec {
			t.Fatalf("round trip changed the manifest:\nfirst  %+v (%s)\nsecond %+v (%s)", m, prec, again, againPrec)
		}
	})
}
