package main

// Daemon-level resilience drills: damaged-artifact reloads under live
// traffic and the checkpoint kill-and-restart drill through the same
// serve.WriteCheckpointFile the daemon runs. These ride the shared training fixture but build their own
// services — the fixture's shared service is mutated by other tests.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clmids/internal/core"
	"clmids/internal/faults"
	"clmids/internal/serve"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// fixtureService builds a dedicated two-shard service over fresh replicas
// of the fixture scorer, optionally wrapping each replica through wrap.
func fixtureService(t *testing.T, f *serveFixture, scfg stream.ServiceConfig, wrap func(tuning.Scorer) tuning.Scorer) *stream.Service {
	t.Helper()
	cfg := stream.DefaultConfig()
	cfg.ContextWindow = 3
	replicas, err := core.ReplicateScorer(f.bs.Scorer, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		for i, r := range replicas {
			replicas[i] = wrap(r)
		}
	}
	det, err := stream.NewShardedDetector(replicas, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stream.NewShardedService(det, scfg)
}

// TestReloadDamagedBundleUnderLoad: every way a bundle artifact can arrive
// damaged — any section flipped or torn, the manifest mangled — must fail
// the /reload with a 422 and an explanation, while the old scorer keeps
// serving the concurrent /score traffic and /readyz stays ready throughout.
func TestReloadDamagedBundleUnderLoad(t *testing.T) {
	f := getFixture(t)
	svc := fixtureService(t, f, stream.ServiceConfig{QueueRequests: 16, BatchEvents: 64}, nil)
	defer svc.Close()
	d := serve.NewDaemon("", false)
	d.Attach(svc, "shell")
	srv := httptest.NewServer(serve.NewHandler(d, 32))
	defer srv.Close()

	good := t.TempDir()
	man, err := core.SaveBundle(good, f.pl, f.bs, "resilience-v1")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/reload?bundle="+good, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming reload: %d", resp.StatusCode)
	}

	// Continuous scoring load for the whole drill.
	stop := make(chan struct{})
	var scored, loadErrs atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"user":"load-%d","time":%d,"line":"ls -la /tmp"}`+"\n", p, i)
				resp, err := http.Post(srv.URL+"/score", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					loadErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					loadErrs.Add(1)
				} else {
					scored.Add(1)
				}
			}
		}(p)
	}

	damages := []struct {
		name  string
		build func(dst string) error
	}{}
	for _, sec := range core.SectionFiles(man) {
		sec := sec
		damages = append(damages,
			struct {
				name  string
				build func(dst string) error
			}{"corrupt-" + sec, func(dst string) error { return faults.CorruptBundleCopy(good, dst, sec) }},
			struct {
				name  string
				build func(dst string) error
			}{"truncate-" + sec, func(dst string) error { return faults.TruncateBundleCopy(good, dst, sec) }},
		)
	}
	damages = append(damages, struct {
		name  string
		build func(dst string) error
	}{"mangled-manifest", func(dst string) error {
		if err := faults.CorruptBundleCopy(good, dst, core.SectionFiles(man)[0]); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, core.ManifestFile), []byte("{torn"), 0o644)
	}})

	for _, dmg := range damages {
		dst := filepath.Join(t.TempDir(), dmg.name)
		if err := dmg.build(dst); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/reload?bundle="+dst, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: reload status %d (%s), want 422", dmg.name, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty reload error body", dmg.name)
		}
		if got := svc.ScorerVersion(); got != man.Version {
			t.Fatalf("%s: damaged reload changed scorer version to %q", dmg.name, got)
		}
		rz, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		rz.Body.Close()
		if rz.StatusCode != http.StatusOK {
			t.Fatalf("%s: /readyz %d after failed reload, want 200", dmg.name, rz.StatusCode)
		}
	}

	close(stop)
	wg.Wait()
	if loadErrs.Load() > 0 {
		t.Fatalf("%d /score failures during damaged reloads (%d succeeded)", loadErrs.Load(), scored.Load())
	}
	if scored.Load() == 0 {
		t.Fatal("load generator never scored; drill proves nothing")
	}
}

// TestCheckpointKillRestartService is the kill-and-restart drill at the
// daemon level: score traffic, checkpoint through serve.WriteCheckpointFile (the
// daemon's own atomic snapshot path), tear the service down, restore a new
// one from the file — and verify its subsequent verdicts match an
// uninterrupted run byte for byte.
func TestCheckpointKillRestartService(t *testing.T) {
	f := getFixture(t)
	scfg := stream.ServiceConfig{QueueRequests: 8, BatchEvents: 64}
	evts := make([]stream.Event, 0, 120)
	for i := 0; i < 120; i++ {
		line := f.test.Samples[i%len(f.test.Samples)].Line
		evts = append(evts, stream.Event{
			User: fmt.Sprintf("ckpt-%d", i%7), Time: int64(100 + i), Line: line,
		})
	}

	ref := fixtureService(t, f, scfg, nil)
	defer ref.Close()
	if _, err := ref.Submit(evts[:80]); err != nil {
		t.Fatal(err)
	}

	victim := fixtureService(t, f, scfg, nil)
	if _, err := victim.Submit(evts[:80]); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sessions.ckpt")
	if err := serve.WriteCheckpointFile(victim, path); err != nil {
		t.Fatal(err)
	}
	victim.Close() // the "crash" (graceful here; the checkpoint already exists)

	restarted := fixtureService(t, f, scfg, nil)
	defer restarted.Close()
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.RestoreSessions(file); err != nil {
		t.Fatal(err)
	}
	file.Close()

	want, err := ref.Submit(evts[80:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := restarted.Submit(evts[80:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restarted service diverged from uninterrupted run")
	}
}
