package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clmids/internal/core"
)

// TestDetectRejectsUnknownModality: the typo fails in milliseconds with
// the registered list, before any artifact is opened.
func TestDetectRejectsUnknownModality(t *testing.T) {
	err := run([]string{"-modality", "syslog", "-input", "-"})
	if err == nil || !strings.Contains(err.Error(), "powershell") ||
		!strings.Contains(err.Error(), "flows") {
		t.Fatalf("unknown modality error does not list registered names: %v", err)
	}
}

// TestDetectModalityPin: -modality pins the bundle's log type — the
// matching pin passes, and a cross-modality pin is rejected with the typed
// mismatch error before a single line is scored.
func TestDetectModalityPin(t *testing.T) {
	bundleDir, _ := bundleFor(t, "pca")
	input := filepath.Join(t.TempDir(), "lines.txt")
	if err := os.WriteFile(input, []byte("ls -la /srv\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-bundle", bundleDir, "-modality", "shell", "-input", input}); err != nil {
		t.Fatalf("matching pin rejected a shell bundle: %v", err)
	}
	err := run([]string{"-bundle", bundleDir, "-modality", "flows", "-input", input})
	if !errors.Is(err, core.ErrModalityMismatch) {
		t.Fatalf("error %v, want ErrModalityMismatch", err)
	}
}
