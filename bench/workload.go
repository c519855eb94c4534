package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"clmids/internal/corpus"
	"clmids/internal/stream"
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name    string
	fleet   bool // router + 2 replicas instead of one replica
	cascade bool // serve the scoring cascade (clmserve -cascade)
	novel   bool // mostly-unseen lines instead of the looped test split
	why     string
}

// workloads are the four mixes; each why is the one BENCHMARK.json gives.
var workloads = []workload{
	{name: "warm-single", why: "looped test split on one replica: embedding-cache hits approach 1, so the NDJSON codec, sessions and cache probes dominate; bypasses BPE, backbone and cascade"},
	{name: "warm-fleet", fleet: true, why: "the same traffic through the fleet router over two replicas, 20 users on each: the only workload with the router hop, and its ratio to warm-single is the fleet tax"},
	{name: "novel-cascade", cascade: true, novel: true, why: "200k events over 2000 users, 44% distinct lines, far past the 4096-line LRUs, on a -cascade replica: rarity rung, int8 triage, f64 confirm and BPE all run"},
	{name: "novel-f64", novel: true, why: "the same novel traffic on the default f64 replica: the backbone dominates, the cascade is bypassed, and the LRU is written and evicted where warm-single only reads it"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// chunk is the events per request: the router's and the replica
	// handler's default chunk, so one request is one Submit per replica.
	chunk = 512
	// clients is the closed-loop client count. Two keeps a 2-vCPU replica
	// busy between one client's requests without a queue building up.
	clients = 2
	// warmupRounds × clients requests make the warm-up, whose verdicts are
	// checked against a single-shard reference detector.
	warmupRounds = 4
	// novelEvents is the size of the novel workloads' corpus.
	novelEvents = 200000
	// fillRequests per client, 131072 events in all, are served before
	// rss_mb is read and timing starts. By then each of the novel
	// workloads' 2000 users has sent about 65 lines, so their sessions
	// (64 lines at most) are nearly full.
	fillRequests = 128
)

// traffic is a workload's event stream, split by user across the clients
// so each client's stream keeps per-user time order.
type traffic struct {
	streams  [clients]*clientStream
	events   int
	distinct int
	users    int
}

// genTraffic makes the workload's events from seed. Warm workloads replay
// the default corpus test split; novel ones a 200k-event split over 2000
// users whose lines mostly miss the 4096-line caches, novelN events long.
func genTraffic(w workload, seed int64, novelN int) (*traffic, error) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	if w.novel {
		cfg.Seed = seed + 1
		cfg.Users = 2000
		cfg.TrainLines = 1
		cfg.TestLines = novelN
	}
	_, test, err := corpus.Generate(cfg)
	if err != nil {
		return nil, err
	}
	samples := test.Samples
	if len(samples) == 0 {
		return nil, fmt.Errorf("workload %s: empty corpus", w.name)
	}
	tr := &traffic{events: len(samples)}
	span := samples[len(samples)-1].Time - samples[0].Time + 1
	owner := map[string]int{}
	lines := map[string]struct{}{}
	var per [clients][]stream.Event
	for _, s := range samples {
		c, ok := owner[s.User]
		if !ok {
			c = len(owner) % clients
			owner[s.User] = c
		}
		lines[s.Line] = struct{}{}
		per[c] = append(per[c], stream.Event{User: s.User, Time: s.Time, Line: s.Line})
	}
	tr.distinct, tr.users = len(lines), len(owner)
	for c := range per {
		if len(per[c]) == 0 {
			return nil, fmt.Errorf("workload %s: client %d has no users", w.name, c)
		}
		cs, err := encodeStream(per[c], span)
		if err != nil {
			return nil, err
		}
		tr.streams[c] = cs
	}
	return tr, nil
}

// clientStream is one client's events pre-encoded as NDJSON, each line cut
// around its time digits so a wrap of the stream (which shifts event time
// forward by one corpus span, as corpus.Replayer does) rewrites only those
// digits: the timed loop does no JSON work.
type clientStream struct {
	buf  []byte
	ev   []encodedEvent
	span int64

	at    int
	shift int64
	body  []byte
}

type encodedEvent struct {
	start, timeAt, end int // buf[start:timeAt] + digits + buf[timeAt:end]
	time               int64
}

func encodeStream(events []stream.Event, span int64) (*clientStream, error) {
	cs := &clientStream{span: span, ev: make([]encodedEvent, len(events))}
	const timeKey = `,"time":`
	for i := range events {
		ev := events[i]
		ev.Time = 0
		raw, err := json.Marshal(&ev)
		if err != nil {
			return nil, err
		}
		// Marshal writes "time":0 right after the quoted user, and ,"
		// cannot occur inside a JSON string, so the first match is the key.
		at := bytes.Index(raw, []byte(timeKey))
		if at < 0 || raw[at+len(timeKey)] != '0' {
			return nil, fmt.Errorf("unexpected event encoding %s", raw)
		}
		start := len(cs.buf)
		cs.buf = append(cs.buf, raw[:at+len(timeKey)]...)
		timeAt := len(cs.buf)
		cs.buf = append(cs.buf, raw[at+len(timeKey)+1:]...)
		cs.buf = append(cs.buf, '\n')
		cs.ev[i] = encodedEvent{start: start, timeAt: timeAt, end: len(cs.buf), time: events[i].Time}
	}
	return cs, nil
}

// rewind restarts the stream at its first event and first pass.
func (cs *clientStream) rewind() { cs.at, cs.shift = 0, 0 }

// next assembles the next chunk-event body, wrapping (and shifting event
// time) at the end of the stream. The returned slice is reused by the next
// call.
func (cs *clientStream) next() []byte {
	b := cs.body[:0]
	for n := 0; n < chunk; n++ {
		if cs.at == len(cs.ev) {
			cs.at = 0
			cs.shift += cs.span
		}
		e := &cs.ev[cs.at]
		cs.at++
		b = append(b, cs.buf[e.start:e.timeAt]...)
		b = strconv.AppendInt(b, e.time+cs.shift, 10)
		b = append(b, cs.buf[e.timeAt:e.end]...)
	}
	cs.body = b
	return b
}

// bytes is the memory the pre-encoded stream holds.
func (cs *clientStream) bytes() int { return cap(cs.buf) + cap(cs.body) + len(cs.ev)*32 }
