package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clmids/internal/faults"
	"clmids/internal/stream"
)

// A healthy fleet must be a transparent proxy: verdicts through the
// router's HTTP surface are byte-identical to a single-node run over the
// same events.
func TestFleetMatchesSingleNode(t *testing.T) {
	reps := []*testReplica{newTestReplica(t), newTestReplica(t), newTestReplica(t)}
	rt := newTestRouter(t, nil, reps...)
	waitHealthy(t, rt, 3)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	ref := newTestService(t)
	defer ref.Close()

	events := chainEventsFor(spreadUsers(rt, 12), 8)
	var fleetVerdicts, refVerdicts []stream.Verdict
	for _, chunk := range chunked(events, 25) {
		fleetVerdicts = append(fleetVerdicts, scoreHTTP(t, front.URL, chunk)...)
		rv, err := ref.Submit(chunk)
		if err != nil {
			t.Fatalf("reference submit: %v", err)
		}
		refVerdicts = append(refVerdicts, rv...)
	}
	if len(fleetVerdicts) != len(events) {
		t.Fatalf("fleet returned %d verdicts for %d events", len(fleetVerdicts), len(events))
	}
	if got, want := verdictJSON(t, fleetVerdicts), verdictJSON(t, refVerdicts); got != want {
		t.Fatalf("fleet verdicts diverge from single node:\nfleet: %.400s\nref:   %.400s", got, want)
	}
	// Sanity: the traffic actually spread over multiple replicas.
	spread := 0
	for _, rep := range reps {
		if rep.svc.Stats().Events > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("only %d replicas saw traffic — ring not spreading", spread)
	}
}

// The failover drill from the issue: an attack chain whose step-1 lands on
// replica A and step-2 lands on replica B after A is killed must trip the
// same session alarm as a single-node run, with zero event loss.
func TestFleetFailoverPreservesAttackChain(t *testing.T) {
	reps := []*testReplica{newTestReplica(t), newTestReplica(t)}
	rt := newTestRouter(t, nil, reps...)
	waitHealthy(t, rt, 2)

	ref := newTestService(t)
	defer ref.Close()

	events := chainEvents(8, 6)
	chunks := chunked(events, 30)
	killAt := len(chunks) / 2

	var fleetVerdicts, refVerdicts []stream.Verdict
	for i, chunk := range chunks {
		if i == killAt {
			// Kill whichever replica currently owns the attack user so the
			// chain is guaranteed to straddle the failover.
			rt.mu.Lock()
			owner := rt.ring.Lookup("mallory")
			rt.mu.Unlock()
			for _, rep := range reps {
				if rep.srv.URL == owner {
					rep.kill()
				}
			}
		}
		vs, err := rt.Route(context.Background(), chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		fleetVerdicts = append(fleetVerdicts, vs...)
		rv, err := ref.Submit(chunk)
		if err != nil {
			t.Fatalf("reference submit: %v", err)
		}
		refVerdicts = append(refVerdicts, rv...)
	}

	if len(fleetVerdicts) != len(events) {
		t.Fatalf("lost events across failover: %d verdicts for %d events", len(fleetVerdicts), len(events))
	}
	if got, want := verdictJSON(t, fleetVerdicts), verdictJSON(t, refVerdicts); got != want {
		t.Fatalf("post-failover verdicts diverge from single node")
	}
	alarms := 0
	for _, v := range fleetVerdicts {
		if v.User == "mallory" && v.SessionAlert {
			alarms++
		}
	}
	if alarms == 0 {
		t.Fatal("attack chain tripped no session alarm across the failover")
	}
	st := rt.Stats()
	if st.Failovers == 0 {
		t.Fatalf("expected at least one failover, stats: %+v", st)
	}
}

// Probe-driven ejection and readmission: a replica that stops answering
// probes leaves the ring after ejectAfter failures and rejoins after
// readmitAfter successes — with its config re-verified on the way back in.
func TestEjectionReadmissionStateMachine(t *testing.T) {
	reps := []*testReplica{newTestReplica(t), newTestReplica(t)}
	rt := newTestRouter(t, nil, reps...)
	waitHealthy(t, rt, 2)

	reps[1].kill()
	waitHealthy(t, rt, 1)
	st := rt.Stats()
	var dead ReplicaStatus
	for _, r := range st.Replicas {
		if r.Addr == reps[1].srv.URL {
			dead = r
		}
	}
	if dead.Ready || dead.Ejections == 0 {
		t.Fatalf("killed replica not ejected: %+v", dead)
	}

	reps[1].revive()
	waitHealthy(t, rt, 2)
	st = rt.Stats()
	for _, r := range st.Replicas {
		if r.Addr == reps[1].srv.URL {
			if !r.Ready || r.Readmissions == 0 || !r.ConfigVerified {
				t.Fatalf("revived replica not readmitted with verified config: %+v", r)
			}
		}
	}
}

// A replica whose session config disagrees with the fleet's must be held
// out of rotation: shadow windows and migrated checkpoints would silently
// mis-score there.
func TestConfigMismatchHeldOut(t *testing.T) {
	good := newTestReplica(t)
	divergent := newDivergentReplica(t)
	// The first replica to pass a probe donates the fleet's reference
	// config, so keep the divergent one down until the good one has.
	divergent.kill()
	var heldOut atomic.Bool
	rt := newTestRouter(t, func(c *Config) {
		c.Logf = func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			t.Log(msg)
			if strings.Contains(msg, divergent.srv.URL) && strings.Contains(msg, "held out") {
				heldOut.Store(true)
			}
		}
	}, good, divergent)
	waitHealthy(t, rt, 1)
	divergent.revive()
	for deadline := time.Now().Add(5 * time.Second); !heldOut.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the revived divergent replica never had its config checked")
		}
	}

	st := rt.Stats()
	for _, r := range st.Replicas {
		if r.Addr == divergent.srv.URL && (r.Ready || r.ConfigVerified) {
			t.Fatalf("config-mismatched replica admitted to rotation: %+v", r)
		}
	}
	// Traffic still flows through the good replica.
	vs, err := rt.Route(context.Background(), chainEvents(4, 2))
	if err != nil || len(vs) == 0 {
		t.Fatalf("fleet with one good replica failed to score: %v", err)
	}
}

// stubScore is a scripted /score backend for retry-path tests: behavior
// keyed off the request ordinal.
type stubReplica struct {
	srv    *httptest.Server
	scores atomic.Int64
	// behave decides request n's fate; return true to fall through to the
	// default echo (one verdict per event).
	behave func(n int64, w http.ResponseWriter, r *http.Request) bool
}

func newStubReplica(t *testing.T, behave func(n int64, w http.ResponseWriter, r *http.Request) bool) *stubReplica {
	t.Helper()
	s := &stubReplica{behave: behave}
	cfg := testSessionConfig()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ready") })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"config": cfg, "modality": "shell"})
	})
	mux.HandleFunc("/sessions/import", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int{"imported": 0})
	})
	mux.HandleFunc("/sessions/export", func(w http.ResponseWriter, r *http.Request) {
		stream.WriteSessionsCheckpoint(w, cfg, "shell", nil, 0)
	})
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		n := s.scores.Add(1)
		if s.behave != nil && !s.behave(n, w, r) {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var ev stream.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				continue
			}
			enc.Encode(stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line})
		}
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// 429 + Retry-After must back off and retry the same replica — shed is
// pre-ingestion, so the retry is safe and sheds must not trigger failover.
func TestOverloadRetriesSameReplica(t *testing.T) {
	stub := newStubReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return false
		}
		return true
	})
	rt := newTestRouter(t, nil, &testReplica{srv: stub.srv})
	waitHealthy(t, rt, 1)

	evs := []stream.Event{{User: "u", Time: 1, Line: "x"}}
	vs, err := rt.Route(context.Background(), evs)
	if err != nil {
		t.Fatalf("Route after sheds: %v", err)
	}
	if len(vs) != 1 || stub.scores.Load() != 3 {
		t.Fatalf("want success on 3rd attempt, got %d verdicts after %d attempts", len(vs), stub.scores.Load())
	}
	if st := rt.Stats(); st.Retries != 2 || st.Failovers != 0 {
		t.Fatalf("want 2 retries and no failover, stats: %+v", st)
	}
}

// budgetTestProbe is the ProbeInterval of the tests that spend a whole
// retry budget. It sets the backoff base to 25ms, so the delay a fifth
// attempt would follow is 200ms, jittered to no less than 100ms.
const budgetTestProbe = 250 * time.Millisecond

// lastAttemptSlack is how long Route may take after the replica receives
// the last attempt of its budget: half the delay one more attempt would
// follow, the shortest that delay's jitter draws. A backoff spent after
// the budget is gone cannot fit under it.
func lastAttemptSlack(rt *Router) time.Duration {
	d, ceiling := rt.cfg.backoff()
	for i := 1; i < retryAttempts; i++ {
		d = min(2*d, ceiling)
	}
	return d / 2
}

// Persistent overload surfaces as ErrOverloaded (the router's 429), not as
// a failover that would dump the load on a neighbor, and as soon as the
// last attempt of the budget is answered.
func TestPersistentOverloadSurfacesAsShed(t *testing.T) {
	var last atomic.Int64 // unix nanoseconds the last attempt arrived
	stub := newStubReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n == retryAttempts {
			last.Store(time.Now().UnixNano())
		}
		w.Header().Set("Retry-After", "0")
		http.Error(w, "shed", http.StatusTooManyRequests)
		return false
	})
	rt := newTestRouter(t, func(c *Config) { c.ProbeInterval = budgetTestProbe }, &testReplica{srv: stub.srv})
	waitHealthy(t, rt, 1)

	_, err := rt.Route(context.Background(), []stream.Event{{User: "u", Time: 1, Line: "x"}})
	tail := time.Since(time.Unix(0, last.Load()))
	if !errors.Is(err, stream.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded through the router, got %v", err)
	}
	if n := stub.scores.Load(); n != retryAttempts {
		t.Fatalf("the overloaded replica got %d attempts, want the budget of %d", n, retryAttempts)
	}
	if slack := lastAttemptSlack(rt); tail >= slack {
		t.Fatalf("Route returned %v after the last attempt, want under %v: a backoff ran with no attempt left", tail, slack)
	}
}

// A response torn mid-stream commits the prefix and fails the suffix over:
// the router must return one verdict per event with no duplicates, and the
// torn replica must be ejected.
func TestTornResponseFailsOverSuffix(t *testing.T) {
	var torn *stubReplica
	torn = newStubReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		// Answer the first event, then sever.
		w.Header().Set("Content-Type", "application/x-ndjson")
		sc := bufio.NewScanner(r.Body)
		enc := json.NewEncoder(w)
		wrote := 0
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var ev stream.Event
			json.Unmarshal(sc.Bytes(), &ev)
			if wrote == 1 {
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				panic(http.ErrAbortHandler)
			}
			enc.Encode(stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line})
			wrote++
		}
		return false
	})
	healthy := newStubReplica(t, nil)
	rt := newTestRouter(t, nil, &testReplica{srv: torn.srv}, &testReplica{srv: healthy.srv})
	waitHealthy(t, rt, 2)

	// All events for users owned by the torn replica, so the torn path is
	// deterministic: find users the ring assigns to it.
	ring := BuildRing([]string{torn.srv.URL, healthy.srv.URL})
	var evs []stream.Event
	for i := 0; len(evs) < 4 && i < 10000; i++ {
		u := fmt.Sprintf("torn-user-%d", i)
		if ring.Lookup(u) == torn.srv.URL {
			evs = append(evs, stream.Event{User: u, Time: int64(100 + i), Line: "y"})
		}
	}
	vs, err := rt.Route(context.Background(), evs)
	if err != nil {
		t.Fatalf("Route across torn response: %v", err)
	}
	if len(vs) != len(evs) {
		t.Fatalf("want %d verdicts, got %d", len(evs), len(vs))
	}
	seen := map[string]int{}
	for _, v := range vs {
		seen[v.User]++
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("user %s got %d verdicts — duplicate or loss across torn failover", u, n)
		}
	}
	st := rt.Stats()
	for _, r := range st.Replicas {
		if strings.HasPrefix(r.Addr, torn.srv.URL) && r.Ready {
			t.Fatalf("torn replica still in rotation: %+v", r)
		}
	}
}

// nanScorer is fakeScorer, except that an input containing "poison" scores
// NaN, which no JSON verdict can carry.
type nanScorer struct{}

func (nanScorer) Score(inputs []string) ([]float64, error) {
	out, _ := fakeScorer{}.Score(inputs)
	for i, s := range inputs {
		if strings.Contains(s, "poison") {
			out[i] = math.NaN()
		}
	}
	return out, nil
}

// A verdict a replica cannot encode must tear its response, not shorten
// it: the router scatters verdicts by position, so a silently dropped line
// would hand every later verdict, and its shadow-window update, to the
// wrong event. No verdict may be attributed to another event, and no event
// may enter a shadow window twice.
func TestUnencodableVerdictMisattributesNothing(t *testing.T) {
	cfg := testSessionConfig()
	reps := []*testReplica{
		newReplicaOver(t, newTestServiceOver(t, cfg, nanScorer{})),
		newReplicaOver(t, newTestServiceOver(t, cfg, nanScorer{})),
	}
	rt := newTestRouter(t, nil, reps...)
	waitHealthy(t, rt, 2)

	// Four users on one replica, the first one's last event poisoned, so
	// other users' events follow it in that replica's response.
	ring := BuildRing([]string{reps[0].srv.URL, reps[1].srv.URL})
	var users []string
	for i := 0; len(users) < 4; i++ {
		if u := fmt.Sprintf("nan-user-%d", i); ring.Lookup(u) == reps[0].srv.URL {
			users = append(users, u)
		}
	}
	var evs []stream.Event
	for step := 0; step < 3; step++ {
		for j, u := range users {
			line := fmt.Sprintf("cmd --step=%d", step)
			if step == 2 && j == 0 {
				line = "poison"
			}
			evs = append(evs, stream.Event{User: u, Time: int64(100 + 10*step + j), Line: line})
		}
	}

	vs, err := rt.Route(context.Background(), evs)
	for i, v := range vs {
		if v.User != evs[i].User || v.Time != evs[i].Time || v.Line != evs[i].Line {
			t.Errorf("verdict %d is for %s@%d %q, but event %d is %s@%d %q",
				i, v.User, v.Time, v.Line, i, evs[i].User, evs[i].Time, evs[i].Line)
		}
	}
	if err == nil {
		t.Fatalf("Route returned %d verdicts for a chunk whose poisoned event no replica can answer", len(vs))
	}

	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, u := range users {
		var own []stream.Event
		for _, ev := range evs {
			if ev.User == u {
				own = append(own, ev)
			}
		}
		sw := rt.shadows[u]
		if sw == nil {
			continue
		}
		if len(sw.Entries) > len(own) {
			t.Fatalf("user %s: %d shadow entries for %d events", u, len(sw.Entries), len(own))
		}
		for k, e := range sw.Entries {
			if e.Time != own[k].Time || e.Line != own[k].Line {
				t.Fatalf("user %s: shadow entry %d is %d %q, want the user's event %d %q",
					u, k, e.Time, e.Line, own[k].Time, own[k].Line)
			}
		}
	}
}

// A wedged replica — it accepts requests and never answers, while its
// probes keep passing — is caught by the per-request timeout: the router
// ejects it and fails the request over to the successor, answering at
// timeout speed rather than waiting out the wedge.
func TestWedgedReplicaTimesOutAndFailsOver(t *testing.T) {
	wedged := newTestReplica(t)
	other := newTestReplica(t)
	rt := newTestRouter(t, func(c *Config) {
		c.RequestTimeout = time.Second
	}, wedged, other)
	waitHealthy(t, rt, 2)

	ring := BuildRing([]string{wedged.srv.URL, other.srv.URL})
	user := ""
	for i := 0; user == "" && i < 10000; i++ {
		if u := fmt.Sprintf("wedge-user-%d", i); ring.Lookup(u) == wedged.srv.URL {
			user = u
		}
	}
	wedged.fault.SpareProbes(true)
	wedged.fault.SetHold(30 * time.Second)
	wedged.fault.Set(faults.ReplicaBlackhole)

	start := time.Now()
	vs, err := rt.Route(context.Background(), []stream.Event{{User: user, Time: 1, Line: "z"}})
	if err != nil || len(vs) != 1 {
		t.Fatalf("route around the wedge: %d verdicts, %v", len(vs), err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("waited out the wedge instead of the request timeout: took %v", elapsed)
	}
	st := rt.Stats()
	if st.Failovers == 0 {
		t.Fatalf("expected a failover, stats: %+v", st)
	}
	for _, r := range st.Replicas {
		if r.Addr == wedged.srv.URL && r.Ejections == 0 {
			t.Fatalf("wedged replica never ejected: %+v", r)
		}
	}
}

// An over-long line is bad input, not a sick replica. A 300 KB line of '<'
// fits the router's 1 MiB line cap, but the router's JSON encoding escapes
// each '<' to six bytes, so the owning replica's scanner rejects it. The
// replica must score the event queued before it and report the line as
// unparsable; the router then aborts the chunk without retrying, failing
// over, or ejecting anyone.
func TestOverlongLineEjectsNoReplica(t *testing.T) {
	reps := []*testReplica{newTestReplica(t), newTestReplica(t)}
	rt := newTestRouter(t, nil, reps...)
	waitHealthy(t, rt, 2)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	body := `{"user":"u","time":1,"line":"ls"}` + "\n" +
		`{"user":"u","time":2,"line":"` + strings.Repeat("<", 300_000) + `"}` + "\n"
	resp, err := http.Post(front.URL+"/score", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /score: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var scored int64
	for _, rep := range reps {
		scored += rep.svc.Stats().Events
	}
	if scored != 1 {
		t.Fatalf("replicas scored %d events, want the 1 before the over-long line", scored)
	}
	// The fleet keeps serving, over the same connections.
	if vs := scoreHTTP(t, front.URL, chainEvents(4, 2)); len(vs) != 10 {
		t.Fatalf("after the over-long line: %d verdicts, want 10", len(vs))
	}
	st := rt.Stats()
	if st.Retries != 0 || st.Failovers != 0 {
		t.Fatalf("over-long line caused retries or failovers: %+v", st)
	}
	for _, r := range st.Replicas {
		if r.Ejections != 0 || !r.Ready {
			t.Fatalf("over-long line ejected a replica: %+v", r)
		}
	}
}

// The router's own surface: /readyz tracks replica health, /stats carries
// fleet counters, and /score 503s when no replica is in rotation.
func TestRouterSurfaceLifecycle(t *testing.T) {
	rep := newTestReplica(t)
	rt := newTestRouter(t, nil, rep)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	waitHealthy(t, rt, 1)

	resp, err := http.Get(front.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with healthy fleet: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	rep.kill()
	waitHealthy(t, rt, 0)
	resp, err = http.Get(front.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	r2, err := http.Post(front.URL+"/score", "application/x-ndjson", strings.NewReader(`{"user":"u","time":1,"line":"x"}`+"\n"))
	if err != nil {
		t.Fatalf("score with dead fleet: %v", err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("score with dead fleet: want 503, got %d", r2.StatusCode)
	}
}

// A replica whose probes pass but whose /score answers 503 is not
// serving, whatever its /readyz says: the router ejects it without a
// retry and fails its chunk over, and the verdicts still match a single
// node.
func TestScoreUnavailableEjectsAndFailsOver(t *testing.T) {
	reps := []*testReplica{newTestReplica(t), newTestReplica(t)}
	rt := newTestRouter(t, nil, reps...)
	waitHealthy(t, rt, 2)

	ref := newTestService(t)
	defer ref.Close()

	events := chainEventsFor(spreadUsers(rt, 8), 6)
	chunks := chunked(events, 10)
	var sick *testReplica
	var fleetVerdicts, refVerdicts []stream.Verdict
	for i, chunk := range chunks {
		if i == len(chunks)/2 {
			// Break whichever replica owns the attack user, so the chain
			// straddles the failover.
			rt.mu.Lock()
			owner := rt.ring.Lookup("mallory")
			rt.mu.Unlock()
			for _, rep := range reps {
				if rep.srv.URL == owner {
					sick = rep
				}
			}
			sick.scoreStatus.Store(http.StatusServiceUnavailable)
		}
		vs, err := rt.Route(context.Background(), chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		fleetVerdicts = append(fleetVerdicts, vs...)
		rv, err := ref.Submit(chunk)
		if err != nil {
			t.Fatalf("reference submit: %v", err)
		}
		refVerdicts = append(refVerdicts, rv...)
	}
	if got, want := verdictJSON(t, fleetVerdicts), verdictJSON(t, refVerdicts); got != want {
		t.Fatalf("verdicts across a 503 failover diverge from single node:\nfleet: %.400s\nref:   %.400s", got, want)
	}
	st := rt.Stats()
	if st.Failovers == 0 || st.Retries != 0 {
		t.Fatalf("want failovers and no retries, stats: %+v", st)
	}
	for _, r := range st.Replicas {
		if r.Addr == sick.srv.URL && r.Ejections == 0 {
			t.Fatalf("replica answering 503 never ejected: %+v", r)
		}
	}
}

// A replica whose /score keeps answering 500 while its probes pass gets
// the whole attempt budget on the same target, then is ejected, and the
// chunk fails over to its successor without waiting after the last
// attempt.
func TestPersistentInternalErrorEjectsAfterBudget(t *testing.T) {
	var last atomic.Int64 // unix nanoseconds the last attempt arrived
	sick := newStubReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n == retryAttempts {
			last.Store(time.Now().UnixNano())
		}
		http.Error(w, "boom", http.StatusInternalServerError)
		return false
	})
	good := newStubReplica(t, nil)
	rt := newTestRouter(t, func(c *Config) { c.ProbeInterval = budgetTestProbe },
		&testReplica{srv: sick.srv}, &testReplica{srv: good.srv})
	waitHealthy(t, rt, 2)

	ring := BuildRing([]string{sick.srv.URL, good.srv.URL})
	var evs []stream.Event
	for i := 0; len(evs) < 3 && i < 10000; i++ {
		if u := fmt.Sprintf("sick-user-%d", i); ring.Lookup(u) == sick.srv.URL {
			evs = append(evs, stream.Event{User: u, Time: int64(100 + i), Line: "y"})
		}
	}
	vs, err := rt.Route(context.Background(), evs)
	tail := time.Since(time.Unix(0, last.Load()))
	if err != nil {
		t.Fatalf("Route past a replica answering 500: %v", err)
	}
	if slack := lastAttemptSlack(rt); tail >= slack {
		t.Fatalf("Route returned %v after the last attempt, want under %v: a backoff ran with no attempt left", tail, slack)
	}
	for i, v := range vs {
		if v.User != evs[i].User || v.Time != evs[i].Time || v.Line != evs[i].Line {
			t.Fatalf("verdict %d is %+v, want one for %+v", i, v, evs[i])
		}
	}
	budget := int64(retryAttempts)
	if n := sick.scores.Load(); n != budget {
		t.Fatalf("the failing replica got %d attempts, want the budget of %d", n, budget)
	}
	st := rt.Stats()
	if st.Retries != budget-1 || st.Failovers != 1 || good.scores.Load() != 1 {
		t.Fatalf("want %d retries, one failover to the good replica; stats: %+v", budget-1, st)
	}
	for _, r := range st.Replicas {
		if r.Addr == sick.srv.URL && r.Ejections == 0 {
			t.Fatalf("replica answering 500 never ejected: %+v", r)
		}
	}
}

// A rolling reload never takes a second replica out of rotation: with one
// replica already down it stops before the healthy one, with the
// one-out-at-a-time error, having drained and reloaded nothing.
func TestRollingReloadHaltsWhileAnotherIsDown(t *testing.T) {
	healthy, down := newTestReplica(t), newTestReplica(t)
	down.kill()
	rt := newTestRouter(t, func(c *Config) {
		c.RequestTimeout = 100 * time.Millisecond
	}, healthy, down)
	waitHealthy(t, rt, 1)

	// Watch from the side for any drain while the reload runs.
	stop := make(chan struct{})
	drained := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				close(drained)
				return
			case <-time.After(time.Millisecond):
			}
			for _, r := range rt.Stats().Replicas {
				if r.Draining {
					select {
					case drained <- r.Addr:
					default:
					}
				}
			}
		}
	}()
	done, err := rt.RollingReload(context.Background(), "next")
	close(stop)
	if addr, ok := <-drained; ok {
		t.Fatalf("reload drained %s while another replica was down", addr)
	}
	if err == nil || !strings.Contains(err.Error(), "one-out-at-a-time") || len(done) != 0 {
		t.Fatalf("want the one-out-at-a-time error and nothing reloaded, got %v, %+v", err, done)
	}
	for _, rep := range []*testReplica{healthy, down} {
		select {
		case v := <-rep.reloads:
			t.Fatalf("replica %s reloaded to %s", rep.srv.URL, v)
		default:
		}
	}
	st := rt.Stats()
	for _, r := range st.Replicas {
		if r.Addr == healthy.srv.URL && (!r.Ready || r.Draining) {
			t.Fatalf("healthy replica left rotation: %+v", r)
		}
	}
	if st.HealthyReplicas != 1 {
		t.Fatalf("want the healthy replica in rotation, stats: %+v", st)
	}
}

// A replica that refuses a reload (a replica's /reload answers 409 to a
// bundle of another modality than the one it serves) halts the rolling
// reload with an error naming it, and leaves it as it was: undrained,
// ready, config-verified and in the ring, like every other replica.
func TestRollingReloadRefusedLeavesReplicaInRotation(t *testing.T) {
	first, refusing := newTestReplica(t), newTestReplica(t)
	refusing.reloadStatus.Store(http.StatusConflict)
	rt := newTestRouter(t, nil, first, refusing)
	waitHealthy(t, rt, 2)

	done, err := rt.RollingReload(context.Background(), "other-modality")
	if err == nil || !strings.Contains(err.Error(), refusing.srv.URL) || !strings.Contains(err.Error(), "409") {
		t.Fatalf("want an error naming %s and its 409, got %v", refusing.srv.URL, err)
	}
	if len(done) != 1 || done[0].Addr != first.srv.URL {
		t.Fatalf("want only %s reloaded, got %+v", first.srv.URL, done)
	}
	select {
	case v := <-refusing.reloads:
		t.Fatalf("refusing replica reloaded to %s", v)
	default:
	}
	rt.mu.Lock()
	inRing := map[string]bool{}
	for _, p := range rt.ring.points {
		inRing[p.addr] = true
	}
	for _, rep := range rt.reps {
		if !rep.ready || !rep.cfgOK || rep.draining || !inRing[rep.addr] {
			t.Errorf("replica %s: ready %v, cfgOK %v, draining %v, in ring %v",
				rep.addr, rep.ready, rep.cfgOK, rep.draining, inRing[rep.addr])
		}
	}
	rt.mu.Unlock()
}

// At clmserve's defaults (-probe-interval 500ms, -request-timeout 15s),
// the derived timings are the values the retry and reload knobs they
// replaced defaulted to: backoff from 50ms up to 2s, 4 attempts, and 30s
// for each wait inside a rolling reload.
func TestRouterTimingsAtDefaults(t *testing.T) {
	for _, cfg := range []Config{{}, {ProbeInterval: 500 * time.Millisecond, RequestTimeout: 15 * time.Second}} {
		cfg = cfg.withDefaults()
		base, ceiling := cfg.backoff()
		if base != 50*time.Millisecond || ceiling != 2*time.Second || retryAttempts != 4 || cfg.reloadWait() != 30*time.Second {
			t.Fatalf("backoff %v up to %v, %d attempts, reload wait %v; want 50ms up to 2s, 4, 30s",
				base, ceiling, retryAttempts, cfg.reloadWait())
		}
	}
}
