package stream

// Crash-safe session checkpoints and per-user session handoff. A restarted
// detector loses every per-user sliding window — and with them exactly the
// multi-line attack chains the session aggregator exists to catch.
// SaveSessions serializes the session state deterministically;
// RestoreSessions rebuilds it, so a restart (or a fleet handoff) resumes
// mid-chain sessions and trips the same alarms an uninterrupted run would.
// ExportSessions/ImportSessions are the per-user refinement the fleet
// router builds on: export a chosen subset of users (a replica being
// drained, the users rehashed away by a ring change), import them into
// another replica without touching anyone else's window.
//
// The format mirrors the PR 4 bundle discipline: a self-describing header
// carrying a format string and a sha256 of the payload, verified before any
// decoding, so a torn or tampered checkpoint fails with a named checksum
// error instead of a decoder panic. Sessions are stored per user (sorted),
// not per shard: restoring re-routes each user through the shard hash, so a
// checkpoint taken at N shards restores into M shards — and an export taken
// on one replica imports into any other, whatever its shard count.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
)

// CheckpointFormat identifies the session-checkpoint layout;
// RestoreSessions rejects headers written by a different format.
const CheckpointFormat = "clmids-sessions v1"

// ErrCheckpointCorrupt flags a checkpoint whose header, checksum, or
// payload failed verification — callers distinguish "start fresh" from
// configuration errors with errors.Is.
var ErrCheckpointCorrupt = errors.New("stream: checkpoint corrupt")

// ErrCheckpointIncompatible flags a structurally valid checkpoint that must
// not be restored here: its session semantics (windowing, context,
// aggregation) or its log modality differ from the receiving detector's,
// so replaying it would silently mis-score. Callers branch with errors.Is —
// the HTTP import surface maps it to 409 Conflict, startup logs it and
// starts fresh.
var ErrCheckpointIncompatible = errors.New("stream: checkpoint incompatible")

// checkpointHeader is the JSON first line of a checkpoint stream.
type checkpointHeader struct {
	Format string `json:"format"`
	// Users is the session count in the payload (decode sanity check).
	Users int `json:"users"`
	// HighWater is the latest event time seen, restored so EvictIdle
	// sweeps resume on the stream's clock.
	HighWater int64 `json:"high_water"`
	// Config is the resolved detector configuration at save time; restore
	// rejects a detector whose session semantics differ (a window replayed
	// under different sessionization would silently change verdicts).
	Config Config `json:"config"`
	// Modality names the log modality the saving detector served; restore
	// rejects a detector stamped with a different one (a PowerShell window
	// replayed into a flows detector would context-join garbage). Empty on
	// either side skips the check (pre-modality checkpoints stay loadable).
	Modality string `json:"modality,omitempty"`
	// Stats carries the aggregate counters so /stats survives a restart.
	Stats Stats `json:"stats"`
	// PayloadSHA256 is the hex sha256 of the gob payload that follows.
	PayloadSHA256 string `json:"payload_sha256"`
}

// writeCheckpoint serializes records (already sorted by user) with header +
// checksummed payload. Determinism: same sessions, same bytes — gob over
// sorted slices has no map-order dependence, so checkpoint diffs mean state
// diffs.
func writeCheckpoint(w io.Writer, cfg Config, modality string, recs []SessionWindow, hw int64, st Stats) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(recs); err != nil {
		return fmt.Errorf("stream: encoding checkpoint payload: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	st.ActiveSessions = len(recs) // snapshot-time truth, recomputed on restore
	hdr, err := json.Marshal(checkpointHeader{
		Format:        CheckpointFormat,
		Users:         len(recs),
		HighWater:     hw,
		Config:        cfg,
		Modality:      modality,
		Stats:         st,
		PayloadSHA256: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return fmt.Errorf("stream: encoding checkpoint header: %w", err)
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return fmt.Errorf("stream: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("stream: writing checkpoint payload: %w", err)
	}
	return nil
}

// WriteSessionsCheckpoint writes windows (any order; sorted here) as a
// checkpoint stream that RestoreSessions and ImportSessions accept. This is
// the fleet router's session-failover escape hatch: when a replica dies
// without exporting, the router — which saw every committed verdict —
// reconstructs the affected users' windows from those verdicts and imports
// them into the failover replica. cfg must be the serving session config
// and modality the served modality, or the import is rejected.
func WriteSessionsCheckpoint(w io.Writer, cfg Config, modality string, windows []SessionWindow, highWater int64) error {
	recs := append([]SessionWindow(nil), windows...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].User < recs[j].User })
	return writeCheckpoint(w, cfg.withDefaults(), modality, recs, highWater, Stats{})
}

// readCheckpoint parses and verifies a checkpoint stream: format first,
// then the payload checksum, and only then the decode — a torn write never
// reaches gob.
func readCheckpoint(r io.Reader) (checkpointHeader, []SessionWindow, error) {
	var hdr checkpointHeader
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return hdr, nil, fmt.Errorf("%w: reading header: %v", ErrCheckpointCorrupt, err)
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, nil, fmt.Errorf("%w: parsing header: %v", ErrCheckpointCorrupt, err)
	}
	if hdr.Format != CheckpointFormat {
		return hdr, nil, fmt.Errorf("stream: unknown checkpoint format %q (this build reads %q)",
			hdr.Format, CheckpointFormat)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return hdr, nil, fmt.Errorf("%w: reading payload: %v", ErrCheckpointCorrupt, err)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != hdr.PayloadSHA256 {
		return hdr, nil, fmt.Errorf("%w: payload checksum mismatch (header %.12s, payload %.12s)",
			ErrCheckpointCorrupt, hdr.PayloadSHA256, got)
	}
	var recs []SessionWindow
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&recs); err != nil {
		return hdr, nil, fmt.Errorf("%w: decoding payload: %v", ErrCheckpointCorrupt, err)
	}
	if len(recs) != hdr.Users {
		return hdr, nil, fmt.Errorf("%w: payload holds %d sessions, header says %d",
			ErrCheckpointCorrupt, len(recs), hdr.Users)
	}
	return hdr, recs, nil
}

// sessionsCompatible reports whether two resolved configs agree on every
// field that shapes session state and its interpretation — windowing,
// context building, and aggregation. Alert thresholds may differ between
// runs (retuning thresholds across a restart is normal operations). A
// mismatch is ErrCheckpointIncompatible.
func sessionsCompatible(a, b Config) error {
	type key struct {
		cw  int
		it  int64
		max int
		agg Aggregation
	}
	ka := key{a.ContextWindow, a.IdleTimeout, a.MaxSessionLines, a.Aggregation}
	kb := key{b.ContextWindow, b.IdleTimeout, b.MaxSessionLines, b.Aggregation}
	if ka != kb {
		return fmt.Errorf("%w: checkpoint session config %+v vs detector %+v",
			ErrCheckpointIncompatible, ka, kb)
	}
	return nil
}

// checkCompat verifies a checkpoint header against the receiving detector's
// session config and stamped modality — the gate both Restore and Import
// pass through, so no path silently mis-scores a window saved under
// different semantics or for a different log type.
func checkCompat(hdr checkpointHeader, cfg Config, modality string) error {
	if err := sessionsCompatible(hdr.Config.withDefaults(), cfg); err != nil {
		return err
	}
	if hdr.Modality != "" && modality != "" && hdr.Modality != modality {
		return fmt.Errorf("%w: checkpoint modality %q vs detector %q",
			ErrCheckpointIncompatible, hdr.Modality, modality)
	}
	return nil
}

// snapshot copies the detector's live sessions (only the named users when
// filter is non-nil) under the state lock. Sessions change only when a
// batch commits, so the snapshot never holds a half-scored batch.
func (d *Detector) snapshot(filter map[string]bool) []SessionWindow {
	d.mu.Lock()
	defer d.mu.Unlock()
	recs := make([]SessionWindow, 0, len(d.sessions))
	for user, sess := range d.sessions {
		if filter == nil || filter[user] {
			recs = append(recs, SessionWindow{User: user, Last: sess.Last, Entries: slices.Clone(sess.Entries)})
		}
	}
	return recs
}

// install lands persisted windows between batches: each record replaces
// its user's window, rebuilt through Append so the receiving detector's
// session rules hold, and a record with no entries removes the user.
// fresh starts from an empty session map (a restore); st, when non-nil,
// folds checkpointed counters into Stats.
func (d *Detector) install(recs []SessionWindow, hw int64, fresh bool, st *Stats) {
	d.procMu.Lock()
	defer d.procMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if fresh {
		d.sessions = make(map[string]*SessionWindow, len(recs))
	}
	for _, r := range recs {
		if len(r.Entries) == 0 {
			delete(d.sessions, r.User)
			continue
		}
		sess := &SessionWindow{User: r.User}
		for _, e := range r.Entries {
			sess.Append(e, d.cfg)
		}
		d.sessions[r.User] = sess
	}
	d.highWater = max(d.highWater, hw)
	if st != nil {
		d.stats.addCounters(*st)
	}
}

// SaveSessions checkpoints every shard's sessions, counters, and
// high-water mark as one user-keyed stream, independent of the shard
// count that produced it. Safe during serving: each shard is snapshotted
// under its own lock — crash-consistent per user (a user lives on exactly
// one shard), not globally instantaneous.
func (d *ShardedDetector) SaveSessions(w io.Writer) error {
	return d.writeSessions(w, nil, true)
}

// ExportSessions writes a checkpoint holding only the named users' windows
// (everyone when users is nil) and no counters — the per-user handoff the
// fleet drain uses. A user with no live session is simply absent.
func (d *ShardedDetector) ExportSessions(w io.Writer, users []string) error {
	var filter map[string]bool
	if users != nil {
		filter = make(map[string]bool, len(users))
		for _, u := range users {
			filter[u] = true
		}
	}
	return d.writeSessions(w, filter, false)
}

// writeSessions is the shared body of SaveSessions and ExportSessions.
func (d *ShardedDetector) writeSessions(w io.Writer, filter map[string]bool, counters bool) error {
	var recs []SessionWindow
	for _, det := range d.dets {
		recs = append(recs, det.snapshot(filter)...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].User < recs[j].User })
	var st Stats
	if counters {
		st = d.Stats()
	}
	return writeCheckpoint(w, d.Config(), d.Modality(), recs, d.HighWater(), st)
}

// RestoreSessions replaces the session state with a checkpoint written by
// SaveSessions, re-routing every user through the shard hash — the shard
// count may differ from the one that saved it. The format and payload
// checksum are verified first, and checkpoints whose session semantics or
// log modality differ are rejected (ErrCheckpointIncompatible). Meant for
// startup, before traffic. The aggregate counters are folded into shard 0
// (per-shard attribution does not survive a reshard; the aggregate does).
func (d *ShardedDetector) RestoreSessions(r io.Reader) error {
	_, err := d.readSessions(r, true)
	return err
}

// ImportSessions merges a checkpoint written by ExportSessions (or
// SaveSessions, or WriteSessionsCheckpoint): each carried user's window is
// replaced wholesale, an empty window removes the user, and every other
// session is untouched. Unlike RestoreSessions it is meant for live
// serving — each shard swaps atomically between batches — and it does not
// fold counters. Returns the number of user windows applied.
func (d *ShardedDetector) ImportSessions(r io.Reader) (int, error) {
	return d.readSessions(r, false)
}

// readSessions is the shared body of RestoreSessions and ImportSessions.
func (d *ShardedDetector) readSessions(r io.Reader, restore bool) (int, error) {
	hdr, recs, err := readCheckpoint(r)
	if err != nil {
		return 0, err
	}
	if err := checkCompat(hdr, d.Config(), d.Modality()); err != nil {
		return 0, err
	}
	parts := make([][]SessionWindow, len(d.dets))
	for _, rec := range recs {
		sh := shardOf(rec.User, len(d.dets))
		parts[sh] = append(parts[sh], rec)
	}
	for i, det := range d.dets {
		var st *Stats
		if restore && i == 0 {
			st = &hdr.Stats
		}
		if restore || len(parts[i]) > 0 {
			det.install(parts[i], hdr.HighWater, restore, st)
		}
	}
	return len(recs), nil
}
