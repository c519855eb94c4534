package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"clmids/internal/serve"
	"clmids/internal/stream"
)

// ReplicaStatus is one replica's health snapshot in RouterStats.
type ReplicaStatus struct {
	Addr  string `json:"addr"`
	Ready bool   `json:"ready"`
	// ConfigVerified reports whether the replica's session config and
	// modality matched the fleet's at last verification.
	ConfigVerified bool `json:"config_verified"`
	Draining       bool `json:"draining"`
	// Ejections / Readmissions count rotation transitions; Inflight is the
	// data-path calls currently against this replica.
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
	Inflight     int64 `json:"inflight"`
}

// RouterStats is the /stats payload of a fleet router.
type RouterStats struct {
	// Replicas is the per-replica health breakdown; HealthyReplicas counts
	// those in rotation.
	Replicas        []ReplicaStatus `json:"replicas"`
	HealthyReplicas int             `json:"healthy_replicas"`
	// Events counts events routed; Retries same-target retry attempts;
	// Failovers re-partitions after a target fell out mid-chunk; Imports /
	// Exports session migrations landed and sourced live.
	Events    int64 `json:"events"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Imports   int64 `json:"imports"`
	Exports   int64 `json:"exports"`
	// TrackedSessions is the live shadow-window count; Modality and Config
	// are the fleet-wide reference discovered from the first replica.
	TrackedSessions int           `json:"tracked_sessions"`
	Modality        string        `json:"modality,omitempty"`
	Config          stream.Config `json:"config"`
}

// Stats snapshots the router's counters and per-replica health.
func (rt *Router) Stats() RouterStats {
	rt.mu.Lock()
	st := RouterStats{
		Replicas:        make([]ReplicaStatus, 0, len(rt.reps)),
		HealthyReplicas: rt.healthyLocked(),
		TrackedSessions: len(rt.shadows),
		Modality:        rt.modality,
		Config:          rt.sessCfg,
	}
	for _, rep := range rt.reps {
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Addr:           rep.addr,
			Ready:          rep.ready,
			ConfigVerified: rep.cfgOK,
			Draining:       rep.draining,
			Ejections:      rep.ejections,
			Readmissions:   rep.readmissions,
			Inflight:       rep.inflight.Load(),
		})
	}
	rt.mu.Unlock()
	st.Events = rt.events.Load()
	st.Retries = rt.retries.Load()
	st.Failovers = rt.failovers.Load()
	st.Imports = rt.imports.Load()
	st.Exports = rt.exports.Load()
	return st
}

// Route scores one chunk of events across the fleet and returns verdicts
// in input order: each event written with AppendRawEvent, routeLines, then
// one DecodeVerdict per line. An error means some events were
// definitively not scored (none are silently dropped: the caller sees
// either a full verdict set or an error).
func (rt *Router) Route(ctx context.Context, events []stream.Event) ([]stream.Verdict, error) {
	if len(events) == 0 {
		return nil, nil
	}
	buf, err := rt.routeLines(ctx, rawEvents(events), nil)
	if err != nil {
		return nil, err
	}
	out := make([]stream.Verdict, len(events))
	for i := range out {
		n := bytes.IndexByte(buf, '\n')
		if n < 0 || !serve.DecodeVerdict(buf[:n], &out[i]) {
			return nil, fmt.Errorf("fleet: routed %q, not %d canonical verdict lines", buf, len(events)-i)
		}
		buf = buf[n+1:]
	}
	return out, nil
}

// rawEvents writes events as the router carries them, in one buffer.
func rawEvents(events []stream.Event) []serve.RawEvent {
	raw := make([]serve.RawEvent, len(events))
	var text []byte
	for i := range events {
		text, raw[i] = serve.AppendRawEvent(text, &events[i])
	}
	return raw
}

// Handler is the router's HTTP surface — protocol-identical to a replica
// for /score (NDJSON in, NDJSON verdicts + coded error records out),
// /healthz, and /readyz, with fleet semantics behind /stats (RouterStats),
// /reload (rolling, zero-drop), and /sessions/export (the router's shadow
// windows).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST NDJSON events", http.StatusMethodNotAllowed)
			return
		}
		if !rt.Ready() {
			http.Error(w, ErrNoReplicas.Error(), http.StatusServiceUnavailable)
			return
		}
		serve.HandleScoreLines(rt.routeLines, rt.cfg.Chunk, rt.now, w, r)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rt.Stats())
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST /reload?bundle=dir", http.StatusMethodNotAllowed)
			return
		}
		done, err := rt.RollingReload(r.Context(), r.URL.Query().Get("bundle"))
		if err != nil {
			// Partial progress still reports: operators need to know which
			// replicas moved before the stop.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{
				"error":    err.Error(),
				"reloaded": done,
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"reloaded": done})
	})
	mux.HandleFunc("/sessions/export", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST /sessions/export?users=a&users=b", http.StatusMethodNotAllowed)
			return
		}
		if !rt.Ready() {
			http.Error(w, ErrNoReplicas.Error(), http.StatusServiceUnavailable)
			return
		}
		users := r.URL.Query()["users"]
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := rt.ExportShadow(w, users); err != nil {
			rt.cfg.Logf("fleet: shadow export: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := rt.Stats()
		if !rt.Ready() {
			http.Error(w, fmt.Sprintf("no healthy replica (%d configured)", len(st.Replicas)), http.StatusServiceUnavailable)
			return
		}
		line := fmt.Sprintf("ready replicas=%d/%d", st.HealthyReplicas, len(st.Replicas))
		if st.Modality != "" {
			line += " modality=" + st.Modality
		}
		fmt.Fprintln(w, line)
	})
	return mux
}
