package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// ReplicaReload reports one replica's slice of a rolling reload.
type ReplicaReload struct {
	// Addr is the replica base URL; Version the bundle version it reported
	// after the swap.
	Addr    string `json:"addr"`
	Version string `json:"version"`
}

// RollingReload hot-swaps the bundle at dir (default: Config.BundleDir)
// across the fleet one replica at a time, gated on per-replica /readyz so
// at most one replica is ever out of rotation — the zero-drop deploy:
//
//  1. wait until every other replica is healthy (a degraded fleet never
//     gives up more capacity);
//  2. mark the replica draining — the ring excludes it, new traffic for
//     its users migrates to successors via live session export;
//  3. wait for its in-flight requests to settle;
//  4. POST /reload and poll /readyz until the new bundle serves;
//  5. readmit and move to the next replica.
//
// A single-replica fleet skips the drain (its hot reload is already
// zero-downtime: the swap is a pointer exchange). On any failure the
// replica is undrained and the reload stops, leaving the fleet fully in
// rotation with whatever versions have landed.
func (rt *Router) RollingReload(ctx context.Context, dir string) ([]ReplicaReload, error) {
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	if dir == "" {
		dir = rt.cfg.BundleDir
	}
	wait, poll := rt.cfg.reloadWait(), rt.cfg.ProbeInterval/2
	var done []ReplicaReload
	for _, rep := range rt.reps {
		drained := len(rt.reps) > 1
		if drained {
			lagging := ""
			err := waitUntil(ctx, wait, poll, func() bool {
				lagging = rt.lagging(rep)
				return lagging == ""
			})
			if err == nil && lagging != "" {
				err = fmt.Errorf("replica %s not healthy (one-out-at-a-time guard)", lagging)
			}
			if err != nil {
				return done, fmt.Errorf("fleet: reload halted before %s: %w", rep.addr, err)
			}
			rt.setDraining(rep, true)
			// Let in-flight data-path calls settle, but bounded: a wedged
			// call must not hang the deploy — the reload proceeds and the
			// straggler fails over like any transport error. A cancelled
			// ctx fails the reload call next.
			waitUntil(ctx, wait, 10*time.Millisecond, func() bool { return rep.inflight.Load() == 0 })
		}
		version, err := rt.reloadOne(ctx, rep, dir)
		if err == nil {
			ready := false
			err = waitUntil(ctx, wait, poll, func() bool {
				ready = rt.checkReady(rep)
				return ready
			})
			if err == nil && !ready {
				err = fmt.Errorf("not ready within %s after reload", wait)
			}
		}
		if drained {
			rt.setDraining(rep, false)
		}
		if err != nil {
			return done, fmt.Errorf("fleet: reload of %s failed: %w", rep.addr, err)
		}
		// The replica answered /readyz itself; don't make its users wait
		// readmitAfter probe ticks to come home.
		rt.admit(rep, true, readmitAfter)
		done = append(done, ReplicaReload{Addr: rep.addr, Version: version})
		rt.cfg.Logf("fleet: replica %s reloaded to %s", rep.addr, version)
	}
	return done, nil
}

func (rt *Router) setDraining(rep *replica, v bool) {
	rt.mu.Lock()
	rep.draining = v
	rt.rebuildRingLocked()
	rt.mu.Unlock()
}

// lagging names a replica other than rep that is not healthy (ready,
// config-verified, not draining), or returns "" when there is none.
func (rt *Router) lagging(rep *replica) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, other := range rt.reps {
		if other != rep && !(other.ready && other.cfgOK && !other.draining) {
			return other.addr
		}
	}
	return ""
}

// reloadOne POSTs /reload?bundle=dir to one replica and returns the new
// bundle version.
func (rt *Router) reloadOne(ctx context.Context, rep *replica, dir string) (string, error) {
	path := "/reload"
	if dir != "" {
		path += "?bundle=" + url.QueryEscape(dir)
	}
	var out struct {
		Version string `json:"version"`
	}
	err := rt.request(ctx, rep, false, rt.cfg.reloadWait(), http.MethodPost, path, nil, func(body io.Reader) error {
		return json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&out)
	})
	return out.Version, err
}
