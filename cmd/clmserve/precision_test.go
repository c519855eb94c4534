package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"clmids/internal/core"
	"clmids/internal/model"
	"clmids/internal/serve"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// TestRunRejectsServeOverrideFlags: the bundle manifest alone decides the
// served stack, so -precision and -cascade are not flags; either fails at
// flag parsing, before any bundle or model loads.
func TestRunRejectsServeOverrideFlags(t *testing.T) {
	for _, flags := range [][]string{{"-precision", "int8"}, {"-cascade"}} {
		err := run(append(flags, "-bundle", "/nonexistent", "-addr", "127.0.0.1:0"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: %v", flags, err)
		}
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

// TestReloadSwapsPrecision: hot-reloading an int8 bundle over a float64
// one swaps the serving precision shard-wide — the zero-downtime ladder
// climb the bundle layer promises.
func TestReloadSwapsPrecision(t *testing.T) {
	f := getFixture(t)
	// Own service (the shared fixture one is closed by the drain test):
	// fresh replicas over the same frozen scorer, two shards.
	replicas, err := core.ReplicateScorer(f.bs.Scorer, 2)
	if err != nil {
		t.Fatal(err)
	}
	det, err := stream.NewShardedDetector(replicas, stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	svc := stream.NewShardedService(det, stream.ServiceConfig{QueueRequests: 8, BatchEvents: 64})
	defer svc.Close()
	d := serve.NewDaemon("", false)
	d.Attach(svc, "shell")
	srv := httptest.NewServer(serve.NewHandler(d, 32))
	defer srv.Close()

	dir := t.TempDir()
	f.bs.Config.Precision = model.PrecisionInt8
	man, err := core.SaveBundle(dir, f.pl, f.bs, "int8-swap-v1")
	f.bs.Config.Precision = ""
	if err != nil {
		t.Fatal(err)
	}
	if man.Precision != string(model.PrecisionInt8) {
		t.Fatalf("manifest precision %q", man.Precision)
	}
	resp, err := http.Post(srv.URL+"/reload?bundle="+dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload int8 bundle: %d", resp.StatusCode)
	}
	if got := svc.ScorerVersion(); got != man.Version {
		t.Fatalf("version %q after int8 reload, want %q", got, man.Version)
	}

	// Scoring flows at the new rung.
	resp, err = http.Post(srv.URL+"/score", "application/x-ndjson",
		strings.NewReader(`{"user":"i8","time":5,"line":"ls -la /srv"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload /score %d", resp.StatusCode)
	}

	// The loaded bundle really serves int8 (spot-check via a fresh load).
	lb, err := core.LoadScorerBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := tuning.ScorerPrecision(lb.Scorer); p != model.PrecisionInt8 {
		t.Fatalf("int8 bundle loads at %q", p)
	}
}

// TestReloadFollowsManifest: one live daemon reloads a float64, a cascade,
// an int8 and the float64 bundle again, and after each reload serves
// exactly what that bundle's manifest says — /stats carries the cascade
// block only on the cascade bundle, every shard reports the manifest
// precision, and a golden chunk's verdict bytes equal those of a daemon
// cold-started on the same bundle. The cascade -> float64 step is the one
// a cascade-sticky reload rule would refuse.
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
	int8Dir := save("int8", func(bs *core.BuiltScorer) { bs.Config.Precision = model.PrecisionInt8 })
	art, err := core.CalibrateCascade(f.bs.Scorer, f.test.Lines())
	if err != nil {
		t.Fatal(err)
	}
	cascadeDir := save("cascade", func(bs *core.BuiltScorer) { bs.Cascade = art })

	live := coldDaemon(t, f64Dir)
	for step, tc := range []struct {
		dir       string
		precision model.Precision
		cascade   bool
	}{
		{f64Dir, model.PrecisionFloat64, false},
		{cascadeDir, model.PrecisionFloat64, true},
		{int8Dir, model.PrecisionInt8, false},
		{f64Dir, model.PrecisionFloat64, false},
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
		for _, ss := range st.Shards {
			if ss.Precision != string(tc.precision) {
				t.Fatalf("step %d (%s): shard %d serves %q, want %q", step, name, ss.Shard, ss.Precision, tc.precision)
			}
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
