package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
