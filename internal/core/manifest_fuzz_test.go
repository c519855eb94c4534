package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"clmids/internal/modality"
)

// FuzzBundleManifest feeds arbitrary manifest.json bytes, seeded under
// testdata/fuzz with float64, cascade and pre-two-rung cascade manifests
// and an older build's plain int8 manifest, to parseManifest. It never
// panics, every refusal (the int8 seed's included) is ErrBundleCorrupt,
// ErrBundleUnsupported or modality.ErrUnknown, and an accepted manifest
// re-marshals to bytes that parse back equal.
func FuzzBundleManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
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
		again, err := parseManifest(out)
		if err != nil {
			t.Fatalf("re-marshalled manifest refused: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the manifest:\nfirst  %+v\nsecond %+v", m, again)
		}
	})
}
