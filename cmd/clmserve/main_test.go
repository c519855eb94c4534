package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/serve"
	"clmids/internal/stream"
)

// serveFixture trains one tiny pipeline and an unsupervised PCA scorer
// (fast: no head tuning), shared across the handler tests. The pipeline
// and built scorer are kept so bundle tests can SaveBundle cheaply.
type serveFixture struct {
	svc  *stream.Service
	test *corpus.Dataset
	pl   *core.Pipeline
	bs   *core.BuiltScorer
}

// ready wraps the fixture service in an attached daemon, the state the
// handler serves against after startup completes.
func (f *serveFixture) ready() *serve.Daemon {
	d := serve.NewDaemon("", false)
	d.Attach(f.svc, "shell")
	return d
}

var (
	fixOnce sync.Once
	fix     *serveFixture
	fixErr  error
)

func getFixture(t *testing.T) *serveFixture {
	t.Helper()
	fixOnce.Do(func() {
		ccfg := corpus.DefaultConfig()
		ccfg.TrainLines = 500
		ccfg.TestLines = 200
		train, test, err := corpus.Generate(ccfg)
		if err != nil {
			fixErr = err
			return
		}
		pcfg := core.TinyExperiment().Pipeline
		pcfg.Pretrain.Epochs = 1
		pl, err := core.BuildPipeline(train.Lines(), pcfg)
		if err != nil {
			fixErr = err
			return
		}
		bs, err := core.BuildScorerFull(pl, core.ScorerConfig{Method: "pca"}, train.Lines(), nil)
		if err != nil {
			fixErr = err
			return
		}
		cfg := stream.DefaultConfig()
		cfg.ContextWindow = 3
		// Two shards over scorer replicas: the HTTP tests exercise the
		// sharded routing/scatter path end to end.
		replicas, err := core.ReplicateScorer(bs.Scorer, 2)
		if err != nil {
			fixErr = err
			return
		}
		det, err := stream.NewShardedDetector(replicas, cfg)
		if err != nil {
			fixErr = err
			return
		}
		fix = &serveFixture{
			svc:  stream.NewShardedService(det, stream.ServiceConfig{QueueRequests: 8, BatchEvents: 64}),
			test: test,
			pl:   pl,
			bs:   bs,
		}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func TestScoreEndpointNDJSON(t *testing.T) {
	f := getFixture(t)
	srv := httptest.NewServer(serve.NewHandler(f.ready(), 32))
	defer srv.Close()

	// Corpus JSONL records work verbatim as events (extra fields ignored).
	var body strings.Builder
	n := 50
	ds := &corpus.Dataset{Samples: f.test.Samples[:n]}
	if err := ds.WriteJSONL(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/score", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var verdicts []stream.Verdict
	for sc.Scan() {
		var v stream.Verdict
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("verdict line %d: %v (%s)", len(verdicts)+1, err, sc.Text())
		}
		verdicts = append(verdicts, v)
	}
	if len(verdicts) != n {
		t.Fatalf("%d verdicts for %d events", len(verdicts), n)
	}
	for i, v := range verdicts {
		s := f.test.Samples[i]
		if v.Line != s.Line || v.User != s.User || v.Time != s.Time {
			t.Fatalf("verdict %d out of order: %+v vs sample %+v", i, v, s)
		}
		if v.SessionLines < 1 {
			t.Fatalf("verdict %d: session lines %d", i, v.SessionLines)
		}
	}
}

// TestScoreEndpointMalformedLineNumber: a malformed NDJSON line yields a
// per-line error record naming its line number — and the stream keeps
// scoring: the well-formed lines before and after it all get verdicts.
func TestScoreEndpointMalformedLineNumber(t *testing.T) {
	f := getFixture(t)
	srv := httptest.NewServer(serve.NewHandler(f.ready(), 32))
	defer srv.Close()

	body := `{"user":"u","time":1,"line":"ls"}` + "\n" +
		`{"user":` + "\n" +
		`{"user":"u","time":2,"line":"pwd"}` + "\n"
	resp, err := http.Post(srv.URL+"/score", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var verdicts, errRecs int
	scn := bufio.NewScanner(resp.Body)
	for scn.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(scn.Bytes(), &rec); err != nil {
			t.Fatalf("unparseable response line %q: %v", scn.Text(), err)
		}
		if msg, ok := rec["error"].(string); ok {
			errRecs++
			if !strings.Contains(msg, "line 2") {
				t.Fatalf("error %q does not name line 2", msg)
			}
			if ln, ok := rec["line"].(float64); !ok || int(ln) != 2 {
				t.Fatalf("error record line field = %v, want 2", rec["line"])
			}
			continue
		}
		verdicts++
	}
	if verdicts != 2 || errRecs != 1 {
		t.Fatalf("got %d verdicts and %d error records, want 2 and 1", verdicts, errRecs)
	}
}

func TestStatsEndpoint(t *testing.T) {
	f := getFixture(t)
	srv := httptest.NewServer(serve.NewHandler(f.ready(), 32))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st stream.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Two shards of 8: the aggregate is the sum, the breakdown is per shard
	// with score-memo counters (the PCA scorer runs on a memoizing engine).
	if st.QueueCapacity != 16 {
		t.Fatalf("queue capacity %d, want 16", st.QueueCapacity)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("%d shard entries, want 2", len(st.Shards))
	}
	for _, ss := range st.Shards {
		if ss.QueueCapacity != 8 {
			t.Fatalf("shard %d queue capacity %d, want 8", ss.Shard, ss.QueueCapacity)
		}
		if ss.Cache == nil {
			t.Fatalf("shard %d reports no cache stats", ss.Shard)
		}
	}
}

func TestScoreMethodNotAllowed(t *testing.T) {
	f := getFixture(t)
	srv := httptest.NewServer(serve.NewHandler(f.ready(), 32))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-aggregation", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown aggregation") {
		t.Fatalf("bad aggregation: %v", err)
	}
	if err := run([]string{"-bundle", "/nonexistent", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("missing bundle accepted")
	}
}

// TestServeRequiresBundle: a bundle is the only way to give a replica a
// scorer, and its absence fails before the listener opens — an unusable
// -addr would otherwise be the error — with a message that says how to
// make one.
func TestServeRequiresBundle(t *testing.T) {
	err := run([]string{"-addr", "not-an-addr"})
	if err == nil || !strings.Contains(err.Error(), "-bundle") ||
		!strings.Contains(err.Error(), "clmtrain -bundle") {
		t.Fatalf("missing -bundle: %v", err)
	}
}

// TestReadinessSplit: during the scorer build/load window the daemon is
// live (/healthz 200) but not ready (/readyz, /score, /stats 503), so load
// balancers don't route to a cold replica; attach flips readiness.
func TestReadinessSplit(t *testing.T) {
	f := getFixture(t)
	d := serve.NewDaemon("", false)
	srv := httptest.NewServer(serve.NewHandler(d, 32))
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("cold /healthz %d, want 200", got)
	}
	for _, path := range []string{"/readyz", "/stats"} {
		if got := get(path); got != http.StatusServiceUnavailable {
			t.Fatalf("cold %s %d, want 503", path, got)
		}
	}
	resp, err := http.Post(srv.URL+"/score", "application/x-ndjson",
		strings.NewReader(`{"user":"u","time":1,"line":"ls"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold /score %d, want 503", resp.StatusCode)
	}

	d.Attach(f.svc, "shell")
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("ready /readyz %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("ready /healthz %d, want 200", got)
	}
}

// TestReloadEndpoint: POST /reload hot-swaps a bundle into the live
// service and the bundle version propagates to the aggregate stats and to
// every shard's breakdown.
func TestReloadEndpoint(t *testing.T) {
	f := getFixture(t)
	d := f.ready()
	srv := httptest.NewServer(serve.NewHandler(d, 32))
	defer srv.Close()

	// No -bundle configured and no ?bundle param: a 400, not a crash.
	resp, err := http.Post(srv.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload without source: %d, want 400", resp.StatusCode)
	}

	dir := t.TempDir()
	man, err := core.SaveBundle(dir, f.pl, f.bs, "swap-test-v2")
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/reload?bundle="+dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body["version"] != man.Version {
		t.Fatalf("reload: status %d body %v, want 200/version %s", resp.StatusCode, body, man.Version)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st stream.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ScorerVersion != man.Version {
		t.Fatalf("aggregate scorer version %q, want %q", st.ScorerVersion, man.Version)
	}
	if len(st.Shards) == 0 {
		t.Fatal("no per-shard stats")
	}
	for _, ss := range st.Shards {
		if ss.ScorerVersion != man.Version {
			t.Fatalf("shard %d scorer version %q, want %q", ss.Shard, ss.ScorerVersion, man.Version)
		}
	}

	// Scoring still flows after the swap.
	resp, err = http.Post(srv.URL+"/score", "application/x-ndjson",
		strings.NewReader(`{"user":"reload-u","time":99,"line":"ls -la"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload /score %d, want 200", resp.StatusCode)
	}

	// A broken bundle path fails the reload and keeps the old scorer.
	resp, err = http.Post(srv.URL+"/reload?bundle=/nonexistent", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("broken reload: %d, want 500", resp.StatusCode)
	}
	if got := f.svc.ScorerVersion(); got != man.Version {
		t.Fatalf("failed reload changed version to %q", got)
	}
}

// TestScoreAfterClose: a drained service refuses new work with a 503
// rather than hanging — run last (the fixture service is shared).
func TestZZScoreAfterClose(t *testing.T) {
	f := getFixture(t)
	f.svc.Close()
	srv := httptest.NewServer(serve.NewHandler(f.ready(), 32))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/score", "application/x-ndjson",
		strings.NewReader(`{"user":"u","time":1,"line":"ls"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}
