package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"clmids/internal/stream"
)

// shadowUser names the u-th schedule user. One name holds a comma, which
// the export query must carry as part of the name, not as a separator.
func shadowUser(u int) string {
	if u == 3 {
		return "shadow,03"
	}
	return fmt.Sprintf("shadow-%02d", u)
}

// shadowSchedule generates a seeded event stream for the shadow property:
// many users, per-user gaps on both sides of IdleTimeout (exactly at it,
// one past it, far past it), runs longer than MaxSessionLines, merged into
// one time-ordered stream.
func shadowSchedule(rng *rand.Rand, cfg stream.Config, users int) []stream.Event {
	gaps := []int64{1, 7, 60, cfg.IdleTimeout - 1, cfg.IdleTimeout, cfg.IdleTimeout + 1, 3 * cfg.IdleTimeout}
	var evs []stream.Event
	for u := 0; u < users; u++ {
		user := shadowUser(u)
		t := int64(1_700_000_000 + rng.Intn(100))
		n := 1 + rng.Intn(3*cfg.MaxSessionLines)
		for i := 0; i < n; i++ {
			if i > 0 {
				t += gaps[rng.Intn(len(gaps))]
			}
			evs = append(evs, stream.Event{User: user, Time: t, Line: fmt.Sprintf("cmd --flag=%d", rng.Intn(40))})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	return evs
}

// checkpointUsers reads the session count off a checkpoint's header line.
func checkpointUsers(t *testing.T, ckpt []byte) int {
	t.Helper()
	line, err := bufio.NewReader(bytes.NewReader(ckpt)).ReadBytes('\n')
	if err != nil {
		t.Fatalf("checkpoint header: %v", err)
	}
	var hdr struct {
		Users int `json:"users"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		t.Fatalf("checkpoint header %q: %v", line, err)
	}
	return hdr.Users
}

// TestShadowMatchesReplicaExport is the shadow-window property: seeded
// schedules go through a router in front of one replica in random batch
// splits, and for every user both sides hold, the router's ExportShadow
// bytes equal the replica's /sessions/export bytes — the router's shadow
// and the replica's session are the same window, down to the checkpoint.
// A first step toward a reference oracle for the fleet.
func TestShadowMatchesReplicaExport(t *testing.T) {
	cfg := testSessionConfig()
	cfg.MaxSessionLines = 6
	var compared, resets, trims int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rep := newTestReplicaCfg(t, cfg)
		rt := newTestRouter(t, nil, rep)
		waitHealthy(t, rt, 1)
		// compare checks one user's window on both sides; users the router
		// has swept idle (the replica evicts lazily) are skipped.
		compare := func(user string) {
			t.Helper()
			var shadow bytes.Buffer
			if err := rt.ExportShadow(&shadow, []string{user}); err != nil {
				t.Fatal(err)
			}
			replica, err := rt.exportFrom(context.Background(), rt.byAddr[rep.srv.URL], []string{user})
			if err != nil {
				t.Fatal(err)
			}
			held, shadowed := checkpointUsers(t, replica.Bytes()), checkpointUsers(t, shadow.Bytes())
			if shadowed > held {
				t.Fatalf("seed %d: router shadows %s but the replica holds no session", seed, user)
			}
			if shadowed == 0 {
				return
			}
			if !bytes.Equal(shadow.Bytes(), replica.Bytes()) {
				t.Fatalf("seed %d: %s's shadow export differs from the replica's:\nrouter  %q\nreplica %q",
					seed, user, shadow.Bytes(), replica.Bytes())
			}
			compared++
		}

		// Compare every user of each batch right after it commits, while
		// their windows are live, and everyone once the schedule ends.
		evs := shadowSchedule(rng, cfg, 24)
		for len(evs) > 0 {
			n := min(1+rng.Intn(40), len(evs))
			vs, err := rt.Route(context.Background(), evs[:n])
			if err != nil {
				t.Fatalf("seed %d: route: %v", seed, err)
			}
			for _, user := range groupUsers(evs[:n]) {
				compare(user)
			}
			for _, v := range vs {
				if v.SessionLines == cfg.MaxSessionLines {
					trims++
				}
			}
			evs = evs[n:]
		}
		for u := 0; u < 24; u++ {
			compare(shadowUser(u))
		}
		resets += int(rep.svc.Stats().SessionsIdleClosed)
	}
	// The property is only as strong as the schedules that exercise it.
	if compared < 200 || resets == 0 || trims == 0 {
		t.Fatalf("schedules too tame: %d windows compared, %d idle resets, %d full windows", compared, resets, trims)
	}
	t.Logf("%d windows compared, %d idle resets, %d full windows", compared, resets, trims)
}

// The idle-shadow sweep runs on the fleet-wide high-water mark of event
// time, but event time is per user: a user idle by that mark may still
// continue a session on its next event. The sweep must not drop that
// user's ownership pin, or a ring move in between would send the user to
// a replica that starts an empty window. Schedule: one replica out of the
// ring, three events for a user the full ring gives that replica, another
// user's event 5000 s later (IdleTimeout is 600), readmit the replica,
// then the first user's next event 10 s after its last one.
func TestIdleSweepKeepsOwnership(t *testing.T) {
	a, b := newTestReplica(t), newTestReplica(t)
	rt := newTestRouter(t, nil, a, b)
	waitHealthy(t, rt, 2)
	ring := BuildRing([]string{a.srv.URL, b.srv.URL})
	user := ""
	for i := 0; user == ""; i++ {
		if u := fmt.Sprintf("sweep-user-%d", i); ring.Lookup(u) == a.srv.URL {
			user = u
		}
	}
	a.kill()
	waitHealthy(t, rt, 1)

	const base = 1_700_000_000
	lines := pickLines(4, func(s float64) bool { return s >= 0.5 })
	steps := [][]stream.Event{
		{{User: user, Time: base, Line: lines[0]}, {User: user, Time: base + 10, Line: lines[1]}, {User: user, Time: base + 20, Line: lines[2]}},
		{{User: "sweep-other", Time: base + 5020, Line: lines[0]}},
		{{User: user, Time: base + 30, Line: lines[3]}},
	}
	ref := newTestService(t)
	defer ref.Close()
	var got, want []stream.Verdict
	for i, evs := range steps {
		if i == 2 {
			a.revive()
			waitHealthy(t, rt, 2)
		}
		vs, err := rt.Route(context.Background(), evs)
		if err != nil {
			t.Fatalf("step %d: route: %v", i, err)
		}
		rv, err := ref.Submit(evs)
		if err != nil {
			t.Fatalf("step %d: reference submit: %v", i, err)
		}
		got, want = append(got, vs...), append(want, rv...)
	}
	if a.svc.Stats().Events != 1 {
		t.Fatalf("the readmitted replica scored %d events, want the last one", a.svc.Stats().Events)
	}
	last := got[len(got)-1]
	if last.SessionLines != 4 || last.Context == "" {
		t.Fatalf("after the ring move the user's event got %d session lines and context %q, want 4 and the joined context", last.SessionLines, last.Context)
	}
	if g, w := verdictJSON(t, got), verdictJSON(t, want); g != w {
		t.Fatalf("fleet verdicts diverge from single node:\nfleet: %s\nref:   %s", g, w)
	}
}
