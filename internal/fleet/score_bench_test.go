package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clmids/internal/corpus"
	"clmids/internal/serve"
	"clmids/internal/stream"
)

// echoReplica is a replica whose /score answers each event line with the
// canonical verdict for it, written straight from the line's bytes, so a
// benchmark of the router spends next to nothing in the replica.
func echoReplica(b *testing.B) string {
	b.Helper()
	cfg := testSessionConfig()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ready") })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"config": cfg, "modality": "shell"})
	})
	mux.HandleFunc("/sessions/import", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int{"imported": 0})
	})
	mux.HandleFunc("/sessions/export", func(w http.ResponseWriter, r *http.Request) {
		stream.WriteSessionsCheckpoint(w, cfg, "shell", nil, 0)
	})
	const tail = `,"line_score":0.125,"context_score":0.25,"session_score":0.5,"session_lines":1,"line_alert":false,"session_alert":false}` + "\n"
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		// Read the whole body first: an HTTP/1 handler that starts its
		// response cannot read on.
		body, _ := io.ReadAll(r.Body)
		out := make([]byte, 0, len(body)+bytes.Count(body, []byte("\n"))*len(tail))
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if len(line) > 1 {
				out = append(append(out, line[:len(line)-2]...), tail...)
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(out)
	})
	srv := httptest.NewServer(mux)
	b.Cleanup(srv.Close)
	return srv.URL
}

// BenchmarkRouterScore measures the router's /score handler over two echo
// replicas, per request line, on two request shapes: lines already in the
// canonical shape AppendEvent writes (what bench's warm-fleet sends), and
// clmgen's JSONL, whose lines start with "line" and carry label and family
// fields, so the router must decode and write every one of them again.
func BenchmarkRouterScore(b *testing.B) {
	_, test, err := corpus.Generate(corpus.Config{TrainLines: 100, TestLines: 2000, Users: 40,
		IntrusionRate: 0.06, OutOfBoxFrac: 0.4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var clmgen, canonical bytes.Buffer
	if err := test.WriteJSONL(&clmgen); err != nil {
		b.Fatal(err)
	}
	for _, s := range test.Samples {
		canonical.Write(serve.AppendEvent(nil, &stream.Event{User: s.User, Time: s.Time, Line: s.Line}))
	}
	rt, err := New(Config{
		Replicas:       []string{echoReplica(b), echoReplica(b)},
		ProbeInterval:  time.Second,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	b.Cleanup(rt.Stop)
	for deadline := time.Now().Add(5 * time.Second); rt.Stats().HealthyReplicas < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatalf("router never reached 2 healthy replicas (stats: %+v)", rt.Stats())
		}
	}
	h := rt.Handler()
	for _, tc := range []struct {
		name string
		body []byte
	}{{"canonical", canonical.Bytes()}, {"clmgen", clmgen.Bytes()}} {
		b.Run(tc.name, func(b *testing.B) {
			lines := bytes.Count(tc.body, []byte("\n"))
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.body)))
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(tc.body)))
				if w.Code != http.StatusOK || bytes.Count(w.Body.Bytes(), []byte("\n")) != lines {
					b.Fatalf("HTTP %d, %d verdict lines for %d events: %.300s", w.Code, bytes.Count(w.Body.Bytes(), []byte("\n")), lines, w.Body.Bytes())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}
