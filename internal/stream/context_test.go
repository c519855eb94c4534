package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"clmids/internal/tuning"
)

// contextConfig is DefaultConfig with a context window of w lines.
func contextConfig(w int) Config {
	cfg := DefaultConfig()
	cfg.ContextWindow = w
	return cfg
}

func TestBuildContexts(t *testing.T) {
	events := []Event{
		ev("a", 100, "whoami"),
		ev("b", 101, "ls"),
		ev("a", 110, "wget -c http://x/p -o python"),
		ev("a", 115, "python"),
		ev("a", 9000, "df -h"), // far later: no context
	}
	got := BuildContexts(events, contextConfig(3))
	want := []string{
		"whoami",
		"ls",
		"whoami ; wget -c http://x/p -o python",
		"whoami ; wget -c http://x/p -o python ; python",
		"df -h",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BuildContexts:\n got %q\nwant %q", got, want)
	}
}

func TestBuildContextsWindow(t *testing.T) {
	events := make([]Event, 6)
	for i := range events {
		events[i] = ev("u", int64(i), fmt.Sprintf("cmd%d", i))
	}
	if got := BuildContexts(events, contextConfig(2)); got[5] != "cmd4 ; cmd5" {
		t.Fatalf("window 2 context = %q", got[5])
	}
	if got := BuildContexts(events, contextConfig(3)); got[5] != "cmd3 ; cmd4 ; cmd5" {
		t.Fatalf("window 3 context = %q", got[5])
	}
}

func TestBuildContextsGapBreaksChain(t *testing.T) {
	events := []Event{
		ev("u", 0, "a"),
		ev("u", 50, "b"),
		ev("u", 1000, "c"), // gap to b exceeds contextGap, within IdleTimeout
	}
	if got := BuildContexts(events, contextConfig(3)); got[2] != "c" {
		t.Fatalf("gap did not break context: %q", got[2])
	}
}

// genLog builds a random multi-user timestamped log.
func genLog(r *rand.Rand) []Event {
	n := 1 + r.Intn(80)
	out := make([]Event, n)
	clock := int64(0)
	for i := range out {
		clock += int64(1 + r.Intn(400))
		out[i] = ev(fmt.Sprintf("u%d", r.Intn(4)), clock, fmt.Sprintf("cmd%d arg%d", r.Intn(20), r.Intn(5)))
	}
	return out
}

// TestQuickBuildContextsInvariants: output is parallel to the input, every
// context ends with its own line, contains at most ContextWindow lines,
// and only lines of the same user.
func TestQuickBuildContextsInvariants(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(values []reflect.Value, r *rand.Rand) {
			values[0] = reflect.ValueOf(genLog(r))
			values[1] = reflect.ValueOf(1 + r.Intn(4))
		},
	}
	prop := func(log []Event, window int) bool {
		got := BuildContexts(log, contextConfig(window))
		if len(got) != len(log) {
			return false
		}
		// Per-user line history for membership checking.
		seenByUser := map[string]map[string]bool{}
		for i, it := range log {
			parts := strings.Split(got[i], " ; ")
			if len(parts) > window || len(parts) == 0 {
				return false
			}
			if parts[len(parts)-1] != it.Line {
				return false
			}
			userSeen := seenByUser[it.User]
			for _, p := range parts[:len(parts)-1] {
				if !userSeen[p] {
					return false // context line never issued by this user
				}
			}
			if userSeen == nil {
				userSeen = map[string]bool{}
				seenByUser[it.User] = userSeen
			}
			userSeen[it.Line] = true
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBuildContextsWindowOne: window 1 must return the lines verbatim.
func TestQuickBuildContextsWindowOne(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(values []reflect.Value, r *rand.Rand) {
			values[0] = reflect.ValueOf(genLog(r))
		},
	}
	prop := func(log []Event) bool {
		got := BuildContexts(log, contextConfig(1))
		for i, it := range log {
			if got[i] != it.Line {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// contextSchedule is one decoded FuzzContextSchedules input.
type contextSchedule struct {
	cfg     Config
	events  []Event
	cuts    []int // batch boundaries: indices into events, ascending
	shards  int   // shard count of the first detector
	restore int   // batch before which sessions move to a fresh detector; -1 never
	reshard int   // shard count of that fresh detector
}

// decodeSchedule reads a schedule from fuzz bytes. Five header bytes pick
// the context window (1–5), IdleTimeout (above or below contextGap),
// MaxSessionLines (above or below the window), the shard count (1–4) and
// the restore point; every further two bytes are one event. The first
// picks the user (of four) and a per-user time step, among them backward
// steps and steps just around contextGap and IdleTimeout; the second
// picks the line (of eight) and whether a batch ends after the event.
func decodeSchedule(data []byte) contextSchedule {
	hdr := make([]byte, 5)
	copy(hdr, data)
	data = data[min(len(data), 5):]
	var s contextSchedule
	s.cfg = DefaultConfig()
	s.cfg.ContextWindow = 1 + int(hdr[0])%5
	if hdr[1]&1 == 0 {
		s.cfg.IdleTimeout = 100 + int64(hdr[1]>>1)*3 // below contextGap
	} else {
		s.cfg.IdleTimeout = contextGap + 1 + int64(hdr[1]>>1)*8
	}
	s.cfg.MaxSessionLines = 1 + int(hdr[2])%(2*s.cfg.ContextWindow+1)
	s.shards = 1 + int(hdr[3])%4
	s.reshard = 1 + int(hdr[3]>>2)%4
	idle := s.cfg.IdleTimeout
	steps := []int64{0, 1, 7, 60, contextGap - 1, contextGap, contextGap + 1,
		idle - 1, idle, idle + 1, -5, -contextGap - 1, 2 * idle, 3}
	clocks := map[string]int64{}
	for i := 0; i+1 < len(data); i += 2 {
		user := fmt.Sprintf("u%d", data[i]%4)
		clocks[user] += steps[int(data[i]>>2)%len(steps)]
		s.events = append(s.events, ev(user, clocks[user], fmt.Sprintf("cmd%d", data[i+1]%8)))
		if data[i+1]&0x80 != 0 {
			s.cuts = append(s.cuts, len(s.events))
		}
	}
	s.restore = -1
	if hdr[4]&1 == 1 {
		s.restore = int(hdr[4]>>1) % (len(s.cuts) + 1)
	}
	return s
}

// serveSchedule runs s through a sharded service — split into its
// batches, with sessions saved and restored into a fresh sharded detector
// at s.restore — and returns every verdict's scoring input, in log order.
func serveSchedule(t *testing.T, s contextSchedule) []string {
	t.Helper()
	start := func(shards int) (*ShardedDetector, *Service) {
		scorers := make([]tuning.Scorer, shards)
		for i := range scorers {
			scorers[i] = &hashScorer{}
		}
		sd, err := NewShardedDetector(scorers, s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sd, NewShardedService(sd, ServiceConfig{})
	}
	sd, svc := start(s.shards)
	defer func() { svc.Close() }()
	var got []string
	lo := 0
	for b, hi := range append(slices.Clone(s.cuts), len(s.events)) {
		if b == s.restore {
			var cp bytes.Buffer
			if err := sd.SaveSessions(&cp); err != nil {
				t.Fatal(err)
			}
			svc.Close()
			sd, svc = start(s.reshard)
			if err := sd.RestoreSessions(&cp); err != nil {
				t.Fatal(err)
			}
		}
		vs, err := svc.Submit(s.events[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, scoringInputs(vs)...)
		lo = hi
	}
	return got
}

// FuzzContextSchedules checks the §IV-C rule over generated schedules:
// whatever the context window, IdleTimeout, MaxSessionLines, batch
// splits, shard count and checkpoint restores, every verdict's scoring
// input equals BuildContexts over the whole log. Seeds are under
// testdata/fuzz/FuzzContextSchedules.
func FuzzContextSchedules(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSchedule(data)
		want := BuildContexts(s.events, s.cfg)
		got := serveSchedule(t, s)
		if len(got) != len(want) {
			t.Fatalf("%d verdicts for %d events", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("config %+v, shards %d, restore before batch %d into %d shards, cuts %v:\nevent %d %+v: served input %q, BuildContexts %q",
					s.cfg, s.shards, s.restore, s.reshard, s.cuts, i, s.events[i], got[i], want[i])
			}
		}
	})
}
