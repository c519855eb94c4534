package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"clmids/internal/faults"
	"clmids/internal/serve"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// fakeScorer is a deterministic stand-in for the inference engine: the
// score of a string is a hash of its bytes, so every replica — and the
// single-node reference — agrees on every score without building a model.
// Fleet tests are about routing and failover, not detection quality.
type fakeScorer struct{}

func fakeScore(s string) float64 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return float64(h%1000) / 999.0
}

func (fakeScorer) Score(inputs []string) ([]float64, error) {
	out := make([]float64, len(inputs))
	for i, s := range inputs {
		out[i] = fakeScore(s)
	}
	return out, nil
}

// testSessionConfig is the shared session config for fleet tests: context
// joining on, decay aggregation, a session threshold attack chains can
// trip, and a short idle timeout so idle-gap semantics get exercised.
func testSessionConfig() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.ContextWindow = 3
	cfg.SessionThreshold = 0.75
	cfg.IdleTimeout = 600
	return cfg
}

// newTestService builds a 2-shard service over fakeScorers with the test
// session config — one replica's engine, or the single-node reference.
func newTestService(t *testing.T) *stream.Service {
	t.Helper()
	return newTestServiceCfg(t, testSessionConfig())
}

func newTestServiceCfg(t *testing.T, cfg stream.Config) *stream.Service {
	t.Helper()
	return newTestServiceOver(t, cfg, fakeScorer{})
}

func newTestServiceOver(t *testing.T, cfg stream.Config, sc tuning.Scorer) *stream.Service {
	t.Helper()
	det, err := stream.NewShardedDetector([]tuning.Scorer{sc, sc}, cfg)
	if err != nil {
		t.Fatalf("detector: %v", err)
	}
	det.SetModality("shell")
	det.SetScorerVersion("v-test")
	return stream.NewShardedService(det, stream.ServiceConfig{QueueRequests: 16, BatchEvents: 64})
}

// testReplica is one in-process clmserve replica behind a switchable
// fault: the production serve handler over a real sharded service, with
// /reload stubbed (bundle loading is exercised elsewhere; here a reload
// bumps the version and blips /readyz so the router's rolling-reload
// gating is what's under test).
type testReplica struct {
	svc   *stream.Service
	fault *faults.ReplicaFault
	srv   *httptest.Server

	reloads       chan string // versions served by the stub /reload
	unreadyWindow time.Duration
	// scoreStatus, when set, is the HTTP status /score answers with while
	// every other route, the probes included, keeps working.
	scoreStatus atomic.Int32
	// reloadStatus, when set, is the HTTP status the stub /reload answers
	// with, reloading nothing.
	reloadStatus atomic.Int32
}

func newTestReplica(t *testing.T) *testReplica {
	t.Helper()
	return newTestReplicaCfg(t, testSessionConfig())
}

// newDivergentReplica is a healthy, protocol-correct replica whose session
// config disagrees with the fleet's — the config-verification holdout case.
func newDivergentReplica(t *testing.T) *testReplica {
	t.Helper()
	cfg := testSessionConfig()
	cfg.IdleTimeout = 60
	return newTestReplicaCfg(t, cfg)
}

func newTestReplicaCfg(t *testing.T, cfg stream.Config) *testReplica {
	t.Helper()
	return newReplicaOver(t, newTestServiceCfg(t, cfg))
}

// newReplicaOver serves svc as a test replica.
func newReplicaOver(t *testing.T, svc *stream.Service) *testReplica {
	t.Helper()
	rep := &testReplica{
		svc:     svc,
		fault:   faults.NewReplicaFault(),
		reloads: make(chan string, 16),
	}
	d := serve.NewDaemon("", false)
	d.Attach(rep.svc, "shell")
	inner := serve.NewHandler(d, 64)
	// Written by /reload, read by concurrent /readyz probes.
	var unreadyUntil atomic.Int64 // unix nanoseconds
	mux := http.NewServeMux()
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if code := rep.reloadStatus.Load(); code != 0 {
			http.Error(w, "reload refused", int(code))
			return
		}
		version := "v-" + r.URL.Query().Get("bundle")
		select {
		case rep.reloads <- version:
		default:
		}
		if rep.unreadyWindow > 0 {
			unreadyUntil.Store(time.Now().Add(rep.unreadyWindow).UnixNano())
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"version": version})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if time.Now().UnixNano() < unreadyUntil.Load() {
			http.Error(w, "reloading", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		if code := rep.scoreStatus.Load(); code != 0 {
			http.Error(w, "score unavailable", int(code))
			return
		}
		inner.ServeHTTP(w, r)
	})
	mux.Handle("/", inner)
	rep.srv = httptest.NewServer(rep.fault.Wrap(mux))
	t.Cleanup(func() {
		rep.srv.Close()
		rep.svc.Close()
	})
	return rep
}

// kill simulates kill -9: every request (probes included) dies at the
// connection level.
func (r *testReplica) kill() {
	r.fault.SpareProbes(false)
	r.fault.Set(faults.ReplicaDown)
}

// revive clears all faults.
func (r *testReplica) revive() { r.fault.ClearFault() }

// newTestRouter builds and starts a router over the replicas with fast,
// deterministic test timings.
func newTestRouter(t *testing.T, mutate func(*Config), reps ...*testReplica) *Router {
	t.Helper()
	addrs := make([]string, len(reps))
	for i, r := range reps {
		addrs[i] = r.srv.URL
	}
	cfg := Config{
		Replicas:       addrs,
		ProbeInterval:  20 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		Logf:           t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

// waitHealthy polls until the router reports n healthy replicas.
func waitHealthy(t *testing.T, rt *Router, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Stats().HealthyReplicas == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("router never reached %d healthy replicas (stats: %+v)", n, rt.Stats())
}

// chainEvents builds a deterministic event stream for nUsers users plus an
// attack user whose lines score high enough to trip the session threshold
// partway through. Events are in time order, chunked later by the caller.
func chainEvents(nUsers, perUser int) []stream.Event {
	users := make([]string, nUsers)
	for u := range users {
		users[u] = fmt.Sprintf("user-%02d", u)
	}
	return chainEventsFor(users, perUser)
}

// chainEventsFor is chainEvents over caller-chosen benign user names.
func chainEventsFor(users []string, perUser int) []stream.Event {
	var evs []stream.Event
	base := int64(1_700_000_000)
	attackLines := pickLines(3, func(s float64) bool { return s >= 0.85 })
	benign := pickLines(8, func(s float64) bool { return s <= 0.4 })
	for step := 0; step < perUser; step++ {
		for u, user := range users {
			evs = append(evs, stream.Event{
				User: user,
				Time: base + int64(step*10+u),
				Line: benign[(step*7+u*3)%len(benign)],
			})
		}
		// The attack chain advances one high-scoring step per round.
		evs = append(evs, stream.Event{
			User: "mallory",
			Time: base + int64(step*10+len(users)),
			Line: attackLines[step%len(attackLines)],
		})
	}
	return evs
}

// spreadUsers picks n "user-NNN" names round-robin across the replicas
// that own them on the router's current ring, so a test's traffic reaches
// every replica whatever ports the replicas happened to bind.
func spreadUsers(rt *Router, n int) []string {
	rt.mu.Lock()
	byOwner := make(map[string][]string)
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("user-%03d", i)
		owner := rt.ring.Lookup(u)
		byOwner[owner] = append(byOwner[owner], u)
	}
	rt.mu.Unlock()
	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	var users []string
	for i := 0; len(users) < n; i++ {
		if o := byOwner[owners[i%len(owners)]]; i/len(owners) < len(o) {
			users = append(users, o[i/len(owners)])
		}
	}
	return users
}

// pickLines scans candidate strings for n lines whose fake score matches
// the predicate; deterministic, so every run agrees on the corpus.
func pickLines(n int, want func(float64) bool) []string {
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		s := fmt.Sprintf("cmd --flag=%d", i)
		if want(fakeScore(s)) {
			out = append(out, s)
		}
	}
	return out
}

// chunked splits events into fixed-size chunks, preserving order.
func chunked(evs []stream.Event, size int) [][]stream.Event {
	var out [][]stream.Event
	for len(evs) > 0 {
		n := size
		if n > len(evs) {
			n = len(evs)
		}
		out = append(out, evs[:n])
		evs = evs[n:]
	}
	return out
}

// verdictJSON renders verdicts one per line — the byte-identical
// comparison form.
func verdictJSON(t *testing.T, vs []stream.Verdict) string {
	t.Helper()
	var b []byte
	for i := range vs {
		j, err := json.Marshal(&vs[i])
		if err != nil {
			t.Fatalf("marshal verdict: %v", err)
		}
		b = append(b, j...)
		b = append(b, '\n')
	}
	return string(b)
}

// scoreHTTP streams events through an NDJSON /score endpoint (router or
// replica) and decodes the verdicts, failing on any in-band error record.
func scoreHTTP(t *testing.T, baseURL string, evs []stream.Event) []stream.Verdict {
	t.Helper()
	var body []byte
	for i := range evs {
		j, err := json.Marshal(&evs[i])
		if err != nil {
			t.Fatalf("marshal event: %v", err)
		}
		body = append(body, j...)
		body = append(body, '\n')
	}
	resp, err := http.Post(baseURL+"/score", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /score: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /score: HTTP %d", resp.StatusCode)
	}
	var out []stream.Verdict
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var probe struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(sc.Bytes(), &probe) == nil && probe.Error != "" {
			t.Fatalf("in-band error record: %s", sc.Text())
		}
		var v stream.Verdict
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad verdict line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("response stream: %v", err)
	}
	return out
}

// groupUsers returns the distinct users in evs, order-preserving.
func groupUsers(evs []stream.Event) []string {
	seen := make(map[string]bool, len(evs))
	users := make([]string, 0, len(evs))
	for _, ev := range evs {
		if !seen[ev.User] {
			seen[ev.User] = true
			users = append(users, ev.User)
		}
	}
	return users
}
