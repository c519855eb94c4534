package stream

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// TestRestoreSessionsMismatchTypedErrors: every incompatibility —
// session-shape config drift, modality drift — surfaces as the typed
// ErrCheckpointIncompatible (distinct from ErrCheckpointCorrupt), so
// operators and the fleet router can branch on errors.Is instead of
// string-matching.
func TestRestoreSessionsMismatchTypedErrors(t *testing.T) {
	cfg := DefaultConfig()
	det := oneShard(t, &stubScorer{}, cfg)
	det.SetModality("shell")
	if _, err := det.Shard(0).Process([]Event{ev("u", 1, "ls")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.SaveSessions(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	badCfg := cfg
	badCfg.IdleTimeout = cfg.IdleTimeout + 1
	mismatched := oneShard(t, &stubScorer{}, badCfg)
	mismatched.SetModality("shell")
	err := mismatched.RestoreSessions(bytes.NewReader(good))
	if !errors.Is(err, ErrCheckpointIncompatible) {
		t.Fatalf("config mismatch: got %v, want ErrCheckpointIncompatible", err)
	}
	if errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("config mismatch misclassified as corruption: %v", err)
	}

	wrongModality := oneShard(t, &stubScorer{}, cfg)
	wrongModality.SetModality("powershell")
	err = wrongModality.RestoreSessions(bytes.NewReader(good))
	if !errors.Is(err, ErrCheckpointIncompatible) {
		t.Fatalf("modality mismatch: got %v, want ErrCheckpointIncompatible", err)
	}
	if st := wrongModality.Stats(); st.ActiveSessions != 0 {
		t.Fatalf("rejected restore mutated the detector: %+v", st)
	}

	// Same checks through ImportSessions — the live-merge path the fleet
	// router drives must refuse with the same typed error.
	if _, err := mismatched.ImportSessions(bytes.NewReader(good)); !errors.Is(err, ErrCheckpointIncompatible) {
		t.Fatalf("import config mismatch: got %v, want ErrCheckpointIncompatible", err)
	}
	if _, err := wrongModality.ImportSessions(bytes.NewReader(good)); !errors.Is(err, ErrCheckpointIncompatible) {
		t.Fatalf("import modality mismatch: got %v, want ErrCheckpointIncompatible", err)
	}
}

// TestExportImportSelectedUsers: ExportSessions carries exactly the named
// users, and importing overwrites only them — other sessions on the target
// detector are untouched.
func TestExportImportSelectedUsers(t *testing.T) {
	cfg := shardedTestConfig()
	src := oneShard(t, &hashScorer{}, cfg)
	if _, err := src.Shard(0).Process([]Event{
		ev("alice", 10, "ls"), ev("bob", 11, "pwd"), ev("carol", 12, "id"),
	}); err != nil {
		t.Fatal(err)
	}

	var ckpt bytes.Buffer
	if err := src.ExportSessions(&ckpt, []string{"alice", "bob"}); err != nil {
		t.Fatal(err)
	}

	dst := oneShard(t, &hashScorer{}, cfg)
	if _, err := dst.Shard(0).Process([]Event{
		ev("bob", 5, "old-bob-state"), ev("dave", 6, "make"),
	}); err != nil {
		t.Fatal(err)
	}
	n, err := dst.ImportSessions(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("imported %d users, want 2", n)
	}
	st := dst.Stats()
	if st.ActiveSessions != 3 { // alice, bob (overwritten), dave
		t.Fatalf("want 3 active sessions after import, got %+v", st)
	}

	// bob's window must now be the source's, not the stale local one: the
	// next verdicts for alice and bob match the source detector's exactly.
	next := []Event{ev("alice", 20, "whoami"), ev("bob", 21, "uname -a")}
	want, err := src.Shard(0).Process(next)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Shard(0).Process(next)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imported users diverge from source:\n got %+v\nwant %+v", got, want)
	}
}

// TestImportEmptyWindowDeletes: a checkpoint record with no window entries
// is a delete marker and removes the session outright instead of
// installing an empty one.
func TestImportEmptyWindowDeletes(t *testing.T) {
	cfg := DefaultConfig()
	det := oneShard(t, &stubScorer{}, cfg)
	det.SetModality("shell")
	if _, err := det.Shard(0).Process([]Event{ev("ghost", 1, "ls"), ev("keeper", 2, "pwd")}); err != nil {
		t.Fatal(err)
	}
	if st := det.Stats(); st.ActiveSessions != 2 {
		t.Fatalf("setup: %+v", st)
	}

	var buf bytes.Buffer
	if err := WriteSessionsCheckpoint(&buf, cfg, "shell", []SessionWindow{{User: "ghost"}}, det.HighWater()); err != nil {
		t.Fatal(err)
	}
	if _, err := det.ImportSessions(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := det.Stats(); st.ActiveSessions != 1 {
		t.Fatalf("delete marker did not remove the session: %+v", st)
	}
}

// TestExportImportPreservesChainAlarm is the fleet handoff drill at the
// detector level: step 1 of a chain lands on one detector, the user's
// session is exported and imported into a second detector (the failover
// target), and step 2 there trips exactly the alarm an uninterrupted run
// trips.
func TestExportImportPreservesChainAlarm(t *testing.T) {
	cfg := chainConfig()
	step1 := ev("mallory", 100, "step1: stage payload")
	step2 := ev("mallory", 110, "step2: exfiltrate")

	ref := oneShard(t, chainScorer{}, cfg)
	if _, err := ref.Shard(0).Process([]Event{step1}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Shard(0).Process([]Event{step2})
	if err != nil {
		t.Fatal(err)
	}
	if !want[0].SessionAlert {
		t.Fatal("reference run did not trip the chain alarm; test scorer broken")
	}

	primary := oneShard(t, chainScorer{}, cfg)
	if _, err := primary.Shard(0).Process([]Event{step1}); err != nil {
		t.Fatal(err)
	}
	var handoff bytes.Buffer
	if err := primary.ExportSessions(&handoff, []string{"mallory"}); err != nil {
		t.Fatal(err)
	}

	failover := oneShard(t, chainScorer{}, cfg)
	if _, err := failover.Shard(0).Process([]Event{ev("bystander", 105, "make test")}); err != nil {
		t.Fatal(err)
	}
	if _, err := failover.ImportSessions(&handoff); err != nil {
		t.Fatal(err)
	}
	got, err := failover.Shard(0).Process([]Event{step2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("handoff diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
}
