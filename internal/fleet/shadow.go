package fleet

import (
	"bytes"
	"io"

	"clmids/internal/stream"
)

// shadowWindow is the router's mirror of one user's session window on
// whatever replica owns them. The router sees every committed verdict, and
// a Verdict carries exactly the fields a checkpoint WindowEntry needs
// (Time, Line, ContextScore) — so by replaying the verdict stream through
// the same idle-gap/trim rules as Detector.begin, the router holds a
// faithful copy of each user's window without ever asking replicas for it.
// When a replica dies mid-session (kill -9 — nothing to export), the
// shadow is serialized through stream.WriteSessionsCheckpoint and imported
// into the failover successor, so an attack chain split across the crash
// still trips its session alarm with byte-identical scores.
//
// Shadows only ever reflect verdicts the router committed to clients:
// events a dead replica half-ingested but never answered for are re-scored
// on the successor, never double-counted.
type shadowWindow struct {
	last    int64
	entries []stream.WindowEntry
}

// applyShadow folds one committed verdict into the user's shadow window,
// mirroring Detector.begin exactly: an event-time gap over IdleTimeout
// closes the window and starts fresh; entries append in arrival order and
// trim to the last MaxSessionLines. Returns the (possibly new) window.
func applyShadow(sw *shadowWindow, v stream.Verdict, cfg stream.Config) *shadowWindow {
	if sw == nil {
		sw = &shadowWindow{}
	}
	if len(sw.entries) > 0 && v.Time-sw.last > cfg.IdleTimeout {
		sw.entries = sw.entries[:0]
	}
	sw.last = v.Time
	sw.entries = append(sw.entries, stream.WindowEntry{
		Time:  v.Time,
		Line:  v.Line,
		Score: v.ContextScore,
	})
	if over := len(sw.entries) - cfg.MaxSessionLines; over > 0 {
		n := copy(sw.entries, sw.entries[over:])
		sw.entries = sw.entries[:n]
	}
	return sw
}

// shadowCheckpoint serializes the named users' shadow windows (skipping
// users with no shadow) as a "clmids-sessions v1" checkpoint suitable for
// POST /sessions/import on the failover target.
func (rt *Router) shadowCheckpoint(users []string) (*bytes.Buffer, error) {
	rt.mu.Lock()
	windows := make([]stream.SessionWindow, 0, len(users))
	for _, u := range users {
		sw, ok := rt.shadows[u]
		if !ok || len(sw.entries) == 0 {
			continue
		}
		ents := make([]stream.WindowEntry, len(sw.entries))
		copy(ents, sw.entries)
		windows = append(windows, stream.SessionWindow{User: u, Last: sw.last, Entries: ents})
	}
	cfg, modality, hw := rt.sessCfg, rt.modality, rt.highWater
	rt.mu.Unlock()

	var buf bytes.Buffer
	if err := stream.WriteSessionsCheckpoint(&buf, cfg, modality, windows, hw); err != nil {
		return nil, err
	}
	return &buf, nil
}

// ExportShadow writes the router's shadow windows for the given users
// (nil = all tracked users) as a checkpoint — the router-side counterpart
// of a replica's /sessions/export, useful for inspecting failover state.
func (rt *Router) ExportShadow(w io.Writer, users []string) error {
	if users == nil {
		rt.mu.Lock()
		users = make([]string, 0, len(rt.shadows))
		for u := range rt.shadows {
			users = append(users, u)
		}
		rt.mu.Unlock()
	}
	buf, err := rt.shadowCheckpoint(users)
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// applyVerdicts folds a successful group's verdicts into the shadow map,
// records ownership, advances the high-water mark, and occasionally sweeps
// idle shadows so the map tracks live sessions, not history.
func (rt *Router) applyVerdicts(addr string, verdicts []stream.Verdict) {
	rt.mu.Lock()
	for _, v := range verdicts {
		rt.shadows[v.User] = applyShadow(rt.shadows[v.User], v, rt.sessCfg)
		rt.owners[v.User] = addr
		if v.Time > rt.highWater {
			rt.highWater = v.Time
		}
	}
	// Sweep at most once per idle-timeout of event time: a shadow idle
	// past IdleTimeout can never extend a session again (the next event
	// starts fresh), so dropping it — and its ownership pin — is free.
	if rt.highWater-rt.lastSweep > rt.sessCfg.IdleTimeout && rt.sessCfg.IdleTimeout > 0 {
		rt.lastSweep = rt.highWater
		for u, sw := range rt.shadows {
			if rt.highWater-sw.last > rt.sessCfg.IdleTimeout {
				delete(rt.shadows, u)
				delete(rt.owners, u)
			}
		}
	}
	rt.mu.Unlock()
}
