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
	var done []ReplicaReload
	for _, rep := range rt.reps {
		drained := len(rt.reps) > 1
		if drained {
			if err := rt.waitOthersReady(ctx, rep); err != nil {
				return done, fmt.Errorf("fleet: reload halted before %s: %w", rep.addr, err)
			}
			rt.setDraining(rep, true)
			rt.waitIdle(ctx, rep)
		}
		version, err := rt.reloadOne(ctx, rep, dir)
		if err == nil {
			err = rt.waitReadyz(ctx, rep)
		}
		if drained {
			rt.setDraining(rep, false)
		}
		if err != nil {
			return done, fmt.Errorf("fleet: reload of %s failed: %w", rep.addr, err)
		}
		// The replica answered /readyz itself; don't make its users wait
		// readmitAfter probe ticks to come home.
		rt.forceReady(rep)
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

// forceReady readmits a replica that just answered /readyz directly,
// short-circuiting the probe state machine.
func (rt *Router) forceReady(rep *replica) {
	if !rt.verifyConfigIfNeeded(rep) {
		return
	}
	rt.mu.Lock()
	rep.consecFails = 0
	rep.consecOKs = readmitAfter
	if !rep.ready && rep.cfgOK {
		rep.ready = true
		rep.readmissions++
	}
	rt.rebuildRingLocked()
	rt.mu.Unlock()
}

func (rt *Router) verifyConfigIfNeeded(rep *replica) bool {
	rt.mu.Lock()
	ok := rep.cfgOK
	rt.mu.Unlock()
	if ok {
		return true
	}
	return rt.verifyConfig(rep)
}

// waitOthersReady blocks until every replica other than rep is healthy
// (ready, config-verified, not draining), or ReloadWait/ctx expires.
func (rt *Router) waitOthersReady(ctx context.Context, rep *replica) error {
	deadline := time.Now().Add(rt.cfg.ReloadWait)
	for {
		rt.mu.Lock()
		lagging := ""
		for _, other := range rt.reps {
			if other != rep && !(other.ready && other.cfgOK && !other.draining) {
				lagging = other.addr
				break
			}
		}
		rt.mu.Unlock()
		if lagging == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s not healthy (one-out-at-a-time guard)", lagging)
		}
		if err := sleepCtx(ctx, rt.cfg.ProbeInterval/2); err != nil {
			return err
		}
	}
}

// waitIdle waits for rep's in-flight data-path calls to settle (bounded;
// a wedged call must not hang the deploy — the reload proceeds and the
// straggler fails over like any transport error).
func (rt *Router) waitIdle(ctx context.Context, rep *replica) {
	deadline := time.Now().Add(rt.cfg.ReloadWait)
	for rep.inflight.Load() > 0 && time.Now().Before(deadline) {
		if err := sleepCtx(ctx, 10*time.Millisecond); err != nil {
			return
		}
	}
}

// reloadOne POSTs /reload?bundle=dir to one replica and returns the new
// bundle version.
func (rt *Router) reloadOne(ctx context.Context, rep *replica, dir string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ReloadWait)
	defer cancel()
	u := rep.addr + "/reload"
	if dir != "" {
		u += "?bundle=" + url.QueryEscape(dir)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return "", err
	}
	return out.Version, nil
}

// waitReadyz polls the replica's /readyz until it answers 200 or
// ReloadWait/ctx expires.
func (rt *Router) waitReadyz(ctx context.Context, rep *replica) error {
	deadline := time.Now().Add(rt.cfg.ReloadWait)
	for {
		if rt.checkReady(rep) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready within %s after reload", rt.cfg.ReloadWait)
		}
		if err := sleepCtx(ctx, rt.cfg.ProbeInterval/2); err != nil {
			return err
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
