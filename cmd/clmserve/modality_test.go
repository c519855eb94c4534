package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clmids/internal/core"
	"clmids/internal/serve"
	"clmids/internal/stream"
)

// TestReloadModalityMismatch: a bundle trained for another modality never
// swaps in — /reload answers 409 Conflict with the mismatch spelled out,
// and the old scorer keeps serving untouched.
func TestReloadModalityMismatch(t *testing.T) {
	f := getFixture(t)
	// A private service (not the shared fixture one, whose lifecycle other
	// tests own): the scorer replica shares the fixture's frozen weights.
	svc := newModalityService(t, f)
	defer svc.Close()
	d := serve.NewDaemon("", false)
	// The daemon serves flows; the fixture bundle below is shell.
	d.Attach(svc, "flows")
	srv := httptest.NewServer(serve.NewHandler(d, 32))
	defer srv.Close()

	dir := t.TempDir()
	if _, err := core.SaveBundle(dir, f.pl, f.bs, "shell-into-flows"); err != nil {
		t.Fatal(err)
	}
	before := svc.ScorerVersion()

	resp, err := http.Post(srv.URL+"/reload?bundle="+dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-modality reload: status %d body %q, want 409", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "modality") {
		t.Fatalf("409 body does not name the modality mismatch: %q", body)
	}
	if got := svc.ScorerVersion(); got != before {
		t.Fatalf("rejected reload changed scorer version %q -> %q", before, got)
	}

	// Scoring still flows on the old scorer.
	resp, err = http.Post(srv.URL+"/score", "application/x-ndjson",
		strings.NewReader(`{"user":"mm-u","time":7,"line":"ls"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rejection /score %d, want 200", resp.StatusCode)
	}

	// The daemon-level reload surfaces the typed error (SIGHUP path).
	if _, err := d.Reload(dir); !errors.Is(err, core.ErrModalityMismatch) {
		t.Fatalf("daemon reload error %v, want ErrModalityMismatch", err)
	}
}

// TestModalitySurfaced: the active modality shows up on /readyz (the
// probe line) and /stats (the JSON field), so operators can tell what a
// replica serves without reading its flags.
func TestModalitySurfaced(t *testing.T) {
	f := getFixture(t)
	svc := newModalityService(t, f)
	defer svc.Close()
	svc.SetModality("shell")
	d := serve.NewDaemon("", false)
	d.Attach(svc, "shell")
	srv := httptest.NewServer(serve.NewHandler(d, 32))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	line, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(line), "modality=shell") {
		t.Fatalf("/readyz %d %q, want 200 with modality=shell", resp.StatusCode, line)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st stream.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Modality != "shell" {
		t.Fatalf("/stats modality %q, want shell", st.Modality)
	}
}

// newModalityService builds a fresh single-shard service over a replica of
// the fixture scorer, so these tests never share lifecycle with the
// fixture service (TestZZScoreAfterClose closes that one).
func newModalityService(t *testing.T, f *serveFixture) *stream.Service {
	t.Helper()
	replicas, err := core.ReplicateScorer(f.bs.Scorer, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, err := stream.NewShardedDetector(replicas, stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return stream.NewShardedService(det, stream.ServiceConfig{QueueRequests: 4, BatchEvents: 32})
}

// TestServeRejectsUnknownModality: a typoed -modality fails fast with the
// registered list, before any bundle loads.
func TestServeRejectsUnknownModality(t *testing.T) {
	err := run([]string{"-modality", "syslog"})
	if err == nil || !strings.Contains(err.Error(), "powershell") ||
		!strings.Contains(err.Error(), "flows") {
		t.Fatalf("unknown modality error does not list registered names: %v", err)
	}
}
