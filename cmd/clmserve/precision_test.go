package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clmids/internal/core"
	"clmids/internal/serve"
	"clmids/internal/stream"
)

// TestRunRejectsServeOverrideFlags: the bundle manifest alone decides the
// served stack, so -precision and -cascade are not flags, and neither are
// the two timers of the load-driven int8 downshift that once overrode it;
// each fails at flag parsing, before any bundle or model loads.
func TestRunRejectsServeOverrideFlags(t *testing.T) {
	for _, flags := range [][]string{
		{"-precision", "int8"},
		{"-cascade"},
		{"-degrade-after", "2s"},
		{"-recover-after", "15s"},
	} {
		err := run(append(flags, "-bundle", "/nonexistent", "-addr", "127.0.0.1:0"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: %v", flags, err)
		}
	}
}

// TestRunRejectsDegradePolicy: degrade is no longer an -overload value. It
// fails before the bundle loads (the bundle path does not exist, so a later
// failure would name it), and the error lists the two policies left.
func TestRunRejectsDegradePolicy(t *testing.T) {
	err := run([]string{"-overload", "degrade", "-bundle", "/nonexistent", "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "block | shed") || strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("-overload degrade: %v", err)
	}
}

// TestRunRejectsBadPprofAddr: an unusable -pprof address fails startup
// before the (potentially minutes-long) scorer load.
func TestRunRejectsBadPprofAddr(t *testing.T) {
	err := run([]string{"-pprof", "not-an-addr", "-bundle", "/nonexistent", "-addr", "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "pprof listener") {
		t.Fatalf("bad pprof addr: %v", err)
	}
}

// TestPprofMuxIsolation: the net/http/pprof import registers its routes on
// the DefaultServeMux (what the -pprof debug listener serves), while the
// scoring handler's mux stays clean — profiling never rides the liveness/
// readiness/scoring surface.
func TestPprofMuxIsolation(t *testing.T) {
	debug := httptest.NewServer(http.DefaultServeMux)
	defer debug.Close()
	resp, err := http.Get(debug.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug mux /debug/pprof/ = %d, want 200", resp.StatusCode)
	}

	serving := httptest.NewServer(serve.NewHandler(serve.NewDaemon("", false), 32))
	defer serving.Close()
	resp, err = http.Get(serving.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("serving mux leaked /debug/pprof/ (%d), want 404", resp.StatusCode)
	}
	// Liveness still answers on the serving mux.
	resp, err = http.Get(serving.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d with pprof enabled elsewhere", resp.StatusCode)
	}
}

// TestReloadSwapsPrecision: hot-reloads walk one live daemon float64 ->
// cascade -> float64, and /stats carries the cascade block (with traffic
// through its int8 triage rung) exactly while the cascade serves. A plain
// int8 bundle from an older build is refused with a 422, and the float64
// scorer keeps serving under its version.
func TestReloadSwapsPrecision(t *testing.T) {
	f := getFixture(t)
	f64Dir, cascadeDir := filepath.Join(t.TempDir(), "f64"), filepath.Join(t.TempDir(), "cascade")
	bs := *f.bs
	if _, err := core.SaveBundle(f64Dir, f.pl, &bs, ""); err != nil {
		t.Fatal(err)
	}
	art, err := core.CalibrateCascade(f.bs.Scorer, f.test.Lines())
	if err != nil {
		t.Fatal(err)
	}
	bs.Cascade = art
	if _, err := core.SaveBundle(cascadeDir, f.pl, &bs, ""); err != nil {
		t.Fatal(err)
	}
	// An older build's plain int8 bundle: the float64 bundle's sections
	// under a manifest that says int8.
	int8Dir := filepath.Join(t.TempDir(), "int8")
	if err := os.CopyFS(int8Dir, os.DirFS(f64Dir)); err != nil {
		t.Fatal(err)
	}
	mj, err := os.ReadFile(filepath.Join(int8Dir, core.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	mj = bytes.Replace(mj, []byte(`"format"`), []byte(`"precision": "int8", "format"`), 1)
	if err := os.WriteFile(filepath.Join(int8Dir, core.ManifestFile), mj, 0o644); err != nil {
		t.Fatal(err)
	}

	live := coldDaemon(t, f64Dir)
	reload := func(dir string) (int, string) {
		t.Helper()
		resp, err := http.Post(live+"/reload?bundle="+dir, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for step, dir := range []string{cascadeDir, f64Dir} {
		if code, body := reload(dir); code != http.StatusOK {
			t.Fatalf("step %d: reload %s: %d %s", step, dir, code, body)
		}
		postScore(t, live, goldenChunk(t, f, fmt.Sprintf("s%d-", step)))
		st := getStats(t, live)
		if onCascade := dir == cascadeDir; (st.Cascade != nil) != onCascade {
			t.Fatalf("step %d (%s): cascade block %+v, want present=%v", step, dir, st.Cascade, onCascade)
		} else if onCascade && st.Cascade.Triaged == 0 {
			t.Fatalf("step %d: cascade served no traffic: %+v", step, st.Cascade)
		}
	}

	before := getStats(t, live).ScorerVersion
	code, body := reload(int8Dir)
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, "int8") || !strings.Contains(body, "retrain") {
		t.Fatalf("reload of an int8 bundle: %d %s", code, body)
	}
	st := getStats(t, live)
	if st.ScorerVersion != before || st.Cascade != nil {
		t.Fatalf("refused reload changed the served stack: version %q (was %q), cascade %+v", st.ScorerVersion, before, st.Cascade)
	}
	postScore(t, live, goldenChunk(t, f, "after-"))
}

// TestReloadFollowsManifest: one live daemon reloads a float64, a cascade
// and the float64 bundle again, and after each reload serves exactly what
// that bundle's manifest says — /stats carries the cascade block only on
// the cascade bundle, and a golden chunk's verdict bytes equal those of a
// daemon cold-started on the same bundle. The cascade -> float64 step is
// the one a cascade-sticky reload rule would refuse.
func TestReloadFollowsManifest(t *testing.T) {
	f := getFixture(t)
	save := func(name string, edit func(*core.BuiltScorer)) string {
		t.Helper()
		bs := *f.bs
		edit(&bs)
		dir := filepath.Join(t.TempDir(), name)
		if _, err := core.SaveBundle(dir, f.pl, &bs, ""); err != nil {
			t.Fatalf("save %s bundle: %v", name, err)
		}
		return dir
	}
	f64Dir := save("f64", func(*core.BuiltScorer) {})
	art, err := core.CalibrateCascade(f.bs.Scorer, f.test.Lines())
	if err != nil {
		t.Fatal(err)
	}
	cascadeDir := save("cascade", func(bs *core.BuiltScorer) { bs.Cascade = art })

	live := coldDaemon(t, f64Dir)
	for step, tc := range []struct {
		dir     string
		cascade bool
	}{
		{f64Dir, false},
		{cascadeDir, true},
		{f64Dir, false},
	} {
		name := filepath.Base(tc.dir)
		resp, err := http.Post(live+"/reload?bundle="+tc.dir, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: reload %s bundle: %d", step, name, resp.StatusCode)
		}

		// Fresh users per step: the live daemon's sessions from earlier
		// steps must not leak into the comparison with a cold start.
		chunk := goldenChunk(t, f, fmt.Sprintf("s%d-", step))
		got := postScore(t, live, chunk)
		if want := postScore(t, coldDaemon(t, tc.dir), chunk); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s): reloaded verdicts differ from a cold start on the same bundle", step, name)
		}

		st := getStats(t, live)
		if (st.Cascade != nil) != tc.cascade {
			t.Fatalf("step %d (%s): cascade block %+v, want present=%v", step, name, st.Cascade, tc.cascade)
		}
		if tc.cascade && st.Cascade.Triaged == 0 {
			t.Fatalf("step %d (%s): cascade served no traffic: %+v", step, name, st.Cascade)
		}
	}
}

// coldDaemon starts a two-shard daemon on the bundle at dir the way
// clmserve starts one, and returns its base URL.
func coldDaemon(t *testing.T, dir string) string {
	t.Helper()
	lb, err := core.LoadScorerBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := lb.Serving()
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := core.ReplicateScorer(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := stream.NewShardedDetector(replicas, stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	det.SetScorerVersion(lb.Manifest.Version)
	det.SetModality(lb.Modality())
	svc := stream.NewShardedService(det, stream.ServiceConfig{QueueRequests: 8, BatchEvents: 64})
	t.Cleanup(svc.Close)
	d := serve.NewDaemon(dir, false)
	d.Attach(svc, lb.Modality())
	srv := httptest.NewServer(serve.NewHandler(d, 32))
	t.Cleanup(srv.Close)
	return srv.URL
}

// goldenChunk is the fixture's first 40 test events as an NDJSON body,
// with every user renamed under prefix.
func goldenChunk(t *testing.T, f *serveFixture, prefix string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range f.test.Samples[:40] {
		b, err := json.Marshal(stream.Event{User: prefix + s.User, Time: s.Time, Line: s.Line})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}

func postScore(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url+"/score", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/score: %d %v %s", resp.StatusCode, err, out)
	}
	return out
}

func getStats(t *testing.T, url string) stream.ServiceStats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st stream.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
