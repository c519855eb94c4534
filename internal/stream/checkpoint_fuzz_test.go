package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"clmids/internal/tuning"
)

// fuzzDetector is the receiving side of FuzzImportSessions: two shards
// under DefaultConfig, stamped shell, the shape the checked-in seeds were
// exported from.
func fuzzDetector(t *testing.T) *ShardedDetector {
	t.Helper()
	sd, err := NewShardedDetector([]tuning.Scorer{&stubScorer{}, &stubScorer{}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sd.SetModality("shell")
	return sd
}

// restamp recomputes the header's payload_sha256 over the bytes after the
// first newline, so a mutated payload gets past the checksum to the gob
// decode and install. Input whose first line is not a JSON object passes
// through unchanged.
func restamp(data []byte) []byte {
	hdr, payload, ok := bytes.Cut(data, []byte("\n"))
	var fields map[string]json.RawMessage
	if !ok || json.Unmarshal(hdr, &fields) != nil || fields == nil {
		return data
	}
	sum := sha256.Sum256(payload)
	fields["payload_sha256"] = json.RawMessage(`"` + hex.EncodeToString(sum[:]) + `"`)
	out, err := json.Marshal(fields)
	if err != nil {
		return data
	}
	return append(append(out, '\n'), payload...)
}

// FuzzImportSessions feeds arbitrary clmids-sessions v1 streams, seeded
// from exports under testdata/fuzz, to ShardedDetector.ImportSessions.
// Import never panics, and every refusal is one of the checkpoint errors:
// ErrCheckpointCorrupt, ErrCheckpointIncompatible or an unknown format.
// Whatever it accepts re-exports to a fixed point: export, import into a
// fresh detector, and export again gives the same bytes.
func FuzzImportSessions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		det := fuzzDetector(t)
		if _, err := det.ImportSessions(bytes.NewReader(restamp(data))); err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointIncompatible) &&
				!strings.Contains(err.Error(), "unknown checkpoint format") {
				t.Fatalf("import refused with an unclassified error: %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := det.ExportSessions(&first, nil); err != nil {
			t.Fatal(err)
		}
		again := fuzzDetector(t)
		if _, err := again.ImportSessions(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("import of an export failed: %v\n%q", err, first.Bytes())
		}
		if err := again.ExportSessions(&second, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export -> import -> export is not a fixed point:\nfirst  %q\nsecond %q", first.Bytes(), second.Bytes())
		}
	})
}
