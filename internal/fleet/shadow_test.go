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
