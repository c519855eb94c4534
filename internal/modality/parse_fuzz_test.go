package modality

import (
	"errors"
	"slices"
	"testing"
)

// FuzzModalityParse feeds arbitrary lines, seeded under testdata/fuzz with
// each generator's benign, weird, typo, garbage and attack lines, to every
// registered modality's Parse. It never panics, every rejection wraps
// ErrUnparsable, and an accepted line's canonical Line parses again to the
// same Record: Parse is idempotent on its own output.
func FuzzModalityParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		for _, name := range Names() {
			m := MustGet(name)
			rec, err := m.Parse(line)
			if err != nil {
				if !errors.Is(err, ErrUnparsable) {
					t.Fatalf("%s: %q refused with an unclassified error: %v", name, line, err)
				}
				continue
			}
			again, err := m.Parse(rec.Line)
			if err != nil {
				t.Fatalf("%s: canonical line %q of %q refused: %v", name, rec.Line, line, err)
			}
			if again.Line != rec.Line || !slices.Equal(again.Commands, rec.Commands) ||
				!slices.Equal(again.Occurrences, rec.Occurrences) {
				t.Fatalf("%s: %q parses to %+v, its canonical line to %+v", name, line, rec, again)
			}
		}
	})
}
