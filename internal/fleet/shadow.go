package fleet

import (
	"bytes"
	"io"
	"slices"

	"clmids/internal/stream"
)

// The router mirrors each user's session window on whatever replica owns
// them. It sees every committed verdict, and a Verdict carries exactly the
// fields a stream.WindowEntry needs (Time, Line, ContextScore), so by
// folding the verdict stream through stream.SessionWindow.Append — the
// same idle-gap and trim rules the replica's detector applies — the router
// holds a faithful copy of each user's window without ever asking replicas
// for it. When a replica dies mid-session (kill -9 — nothing to export),
// the shadow is serialized through stream.WriteSessionsCheckpoint and
// imported into the failover successor, so an attack chain split across
// the crash still trips its session alarm with byte-identical scores.
//
// Shadows only ever reflect verdicts the router committed to clients:
// events a dead replica half-ingested but never answered for are re-scored
// on the successor, never double-counted.

// shadowCheckpoint serializes the named users' shadow windows (skipping
// users with no shadow) as a "clmids-sessions v1" checkpoint suitable for
// POST /sessions/import on the failover target.
func (rt *Router) shadowCheckpoint(users []string) (*bytes.Buffer, error) {
	rt.mu.Lock()
	windows := make([]stream.SessionWindow, 0, len(users))
	for _, u := range users {
		if sw := rt.shadows[u]; sw != nil {
			windows = append(windows, stream.SessionWindow{User: u, Last: sw.Last, Entries: slices.Clone(sw.Entries)})
		}
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
		sw := rt.shadows[v.User]
		if sw == nil {
			sw = &stream.SessionWindow{User: v.User}
			rt.shadows[v.User] = sw
		}
		sw.Append(stream.WindowEntry{Time: v.Time, Line: v.Line, Score: v.ContextScore}, rt.sessCfg)
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
			if rt.highWater-sw.Last > rt.sessCfg.IdleTimeout {
				delete(rt.shadows, u)
				delete(rt.owners, u)
			}
		}
	}
	rt.mu.Unlock()
}
