// Package serve is the HTTP surface of one clmserve replica: the daemon
// state machine (live before ready, hot-reloadable after), the NDJSON
// /score streaming handler, session checkpoint/export/import endpoints,
// and the liveness/readiness split. cmd/clmserve wires flags and scorer
// construction around it; the fleet router (internal/fleet) speaks to it
// over the wire; tests spin real replicas from it in-process — one
// implementation for all three, so the stack under test is the stack in
// production.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"clmids/internal/core"
	"clmids/internal/stream"
)

// Error-record codes: the machine-readable class of an in-band /score error
// record, so the fleet router — and any client — branches on class instead
// of string-matching messages.
const (
	// CodeOverloaded marks a shed rejection (retry after backoff).
	CodeOverloaded = "overloaded"
	// CodeUnparsable marks a malformed input line (retrying is pointless).
	CodeUnparsable = "unparsable"
	// CodeInternal marks a scoring or transport failure inside the replica
	// (the batch rolled back; retrying the same events is safe).
	CodeInternal = "internal"
)

// ErrorRecord is the in-band NDJSON error line /score emits when a line or
// a batch cannot be scored: Code carries the machine-readable class, Error
// the human-readable detail, Line the 1-based input line for per-line
// (unparsable) records.
type ErrorRecord struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Line  int    `json:"line,omitempty"`
}

// errCode classifies a Submit error into an error-record code.
func errCode(err error) string {
	if errors.Is(err, stream.ErrOverloaded) {
		return CodeOverloaded
	}
	return CodeInternal
}

// Daemon is the handler-visible serving state: nil service until the
// startup scorer build/load finishes, then the live service plus the
// bundle directory reloads default to. The HTTP surface runs against it
// from before readiness through hot-reloads.
type Daemon struct {
	mu        sync.RWMutex
	svc       *stream.Service
	bundleDir string
	modality  string // the served modality; reloads must match it

	reloadMu sync.Mutex // serializes /reload + SIGHUP loads

	// now stamps events that arrive without a time. It is time.Now except
	// in tests, which fix it so verdicts are reproducible.
	now func() time.Time
}

// NewDaemon returns a not-yet-ready daemon: /healthz answers 200, scoring
// routes answer 503 until Attach. bundleDir is the default /reload source
// (empty: reloads need an explicit ?bundle=dir). The bool is ignored: each
// reload serves whatever its bundle's manifest says (cascade or not).
func NewDaemon(bundleDir string, _ bool) *Daemon {
	return &Daemon{bundleDir: bundleDir, now: time.Now}
}

// Attach publishes the service and locks in the served modality; the daemon
// is ready from this point, and every reload must carry the same modality.
func (d *Daemon) Attach(svc *stream.Service, served string) {
	d.mu.Lock()
	d.svc = svc
	d.modality = served
	d.mu.Unlock()
}

// Service returns the live service, or false while warming up.
func (d *Daemon) Service() (*stream.Service, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.svc, d.svc != nil
}

// ErrNoBundle distinguishes "nothing to reload from" from load failures.
var ErrNoBundle = errors.New("no bundle directory: started without -bundle; pass ?bundle=dir")

// Reload loads the bundle at dir (default: the active bundle directory)
// and hot-swaps the stack its manifest describes (LoadedBundle.Serving)
// into every shard, returning the new version: a reload may move a daemon
// between float64 and cascade bundles. A
// successful explicit reload rebinds the active directory, so SIGHUP and
// parameterless reloads keep refreshing whatever is currently serving.
// The expensive part — deserializing and replicating — happens before the
// swap, so scoring pauses only for the pointer exchange.
func (d *Daemon) Reload(dir string) (string, error) {
	d.reloadMu.Lock()
	defer d.reloadMu.Unlock()

	svc, ok := d.Service()
	if !ok {
		return "", errors.New("not ready yet")
	}
	d.mu.RLock()
	if dir == "" {
		dir = d.bundleDir
	}
	d.mu.RUnlock()
	if dir == "" {
		return "", ErrNoBundle
	}
	lb, err := core.LoadScorerBundle(dir)
	if err != nil {
		return "", err
	}
	d.mu.RLock()
	served := d.modality
	d.mu.RUnlock()
	// A bundle trained for another modality never swaps in: the reload is
	// rejected with the typed mismatch error (HTTP 409) and the old scorer
	// keeps serving untouched.
	if err := lb.CheckModality(served); err != nil {
		return "", err
	}
	next, err := lb.Serving()
	if err != nil {
		return "", err
	}
	if err := svc.SwapScorer(next, lb.Manifest.Version); err != nil {
		return "", err
	}
	d.mu.Lock()
	d.bundleDir = dir
	d.mu.Unlock()
	return lb.Manifest.Version, nil
}

// WriteCheckpointFile snapshots the service's sessions to path atomically:
// a full write to path+".tmp", then rename, so readers (and the next
// startup) only ever see complete, checksum-valid snapshots.
func WriteCheckpointFile(svc *stream.Service, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := svc.SaveSessions(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// NewHandler wires the replica HTTP surface over the daemon state: /score,
// /stats, /healthz, /readyz, /reload, /sessions/export, /sessions/import.
// chunk caps how many events each streamed Submit carries.
func NewHandler(d *Daemon, chunk int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST NDJSON events", http.StatusMethodNotAllowed)
			return
		}
		svc, ok := d.Service()
		if !ok {
			http.Error(w, "scorer loading, not ready", http.StatusServiceUnavailable)
			return
		}
		handleScore(&eventPool, decodeEvent, encodeVerdicts(svc.SubmitContext), chunk, d.now, w, r)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		svc, ok := d.Service()
		if !ok {
			http.Error(w, "scorer loading, not ready", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(svc.Stats())
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST /reload?bundle=dir", http.StatusMethodNotAllowed)
			return
		}
		version, err := d.Reload(r.URL.Query().Get("bundle"))
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrNoBundle):
				status = http.StatusBadRequest
			case errors.Is(err, core.ErrModalityMismatch):
				// The bundle is fine, it just serves a different log type
				// than this server: a conflict, not a server fault.
				status = http.StatusConflict
			case errors.Is(err, core.ErrBundleCorrupt), errors.Is(err, core.ErrBundleUnsupported):
				// The bundle itself is bad: retrying cannot help, and the
				// old scorer keeps serving.
				status = http.StatusUnprocessableEntity
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"version": version})
	})
	// Per-user session handoff: the fleet router drains users off a live
	// replica with export and lands them (or its own verdict-built shadow
	// windows, when the source is dead) on the failover replica with
	// import. POST on both: export is a read with side-visible intent (a
	// drain step), import mutates.
	mux.HandleFunc("/sessions/export", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST /sessions/export?users=a&users=b", http.StatusMethodNotAllowed)
			return
		}
		svc, ok := d.Service()
		if !ok {
			http.Error(w, "scorer loading, not ready", http.StatusServiceUnavailable)
			return
		}
		users := r.URL.Query()["users"]
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := svc.ExportSessions(w, users); err != nil {
			// Headers may be out; the broken body fails the importer's
			// checksum, so a torn export can never half-apply.
			fmt.Fprintf(os.Stderr, "serve: session export: %v\n", err)
		}
	})
	mux.HandleFunc("/sessions/import", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST checkpoint stream to /sessions/import", http.StatusMethodNotAllowed)
			return
		}
		svc, ok := d.Service()
		if !ok {
			http.Error(w, "scorer loading, not ready", http.StatusServiceUnavailable)
			return
		}
		n, err := svc.ImportSessions(r.Body)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, stream.ErrCheckpointIncompatible):
				// Valid checkpoint, wrong home: session semantics or
				// modality differ — a conflict, not a server fault.
				status = http.StatusConflict
			case errors.Is(err, stream.ErrCheckpointCorrupt):
				status = http.StatusBadRequest
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"imported": n})
	})
	// Liveness: the process is up; 200 even while the scorer is still
	// building or loading, so supervisors don't restart a warming replica.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Readiness: route traffic here only once the scorer serves.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		svc, ok := d.Service()
		if !ok {
			http.Error(w, "loading", http.StatusServiceUnavailable)
			return
		}
		line := "ready"
		if v := svc.ScorerVersion(); v != "" {
			line += " " + v
		}
		if m := svc.Modality(); m != "" {
			line += " modality=" + m
		}
		fmt.Fprintln(w, line)
	})
	return mux
}

// HandleScoreFunc streams NDJSON events through submit in chunks,
// writing NDJSON verdicts back as each chunk completes: the replica's
// /score loop, over a submit whose verdicts it encodes with AppendVerdict.
// Submitting chunk by chunk (rather than slurping the body) keeps memory
// bounded and propagates queue backpressure to the client through TCP. A
// malformed line costs that line, not the connection: the stream carries a
// per-line error record (code "unparsable") in its place and keeps
// scoring; one bad producer among the fleet's log shippers must not sever
// everyone sharing the pipe. Overload rejections (shed policy) map to 429
// + Retry-After while the response is still unstarted, in-band error
// records (code "overloaded" | "internal") afterwards. A verdict JSON
// cannot carry (a non-finite score) ends the response torn, after the
// verdicts before it: a client matching verdicts to events by position
// must never see a short stream.
//
// Events without a time are stamped with the wall clock on arrival, and
// events without a user get the user "-". submit must leave its events as
// it got them: a verdict that repeats its event's user, time and line is
// written from the event's request line.
func HandleScoreFunc(submit func(ctx context.Context, events []stream.Event) ([]stream.Verdict, error), chunk int, w http.ResponseWriter, r *http.Request) {
	handleScore(&eventPool, decodeEvent, encodeVerdicts(submit), chunk, time.Now, w, r)
}

// HandleScoreLines is the /score loop of HandleScoreFunc for the fleet
// router, which forwards request lines instead of decoding them. Each
// chunk reaches submit as RawEvents: a line already in the canonical shape
// (ScanEvent) is carried as it came, and any other line is decoded,
// stamped with now or given its "-" user, and re-encoded with AppendEvent,
// so a replica receives the bytes it would if the router decoded every
// line. submit appends one NDJSON verdict line per event of its chunk to
// buf, in input order; a submit error drops what it appended. The
// protocol is otherwise HandleScoreFunc's, so clients cannot tell a router
// from a replica.
func HandleScoreLines(submit func(ctx context.Context, events []RawEvent, buf []byte) ([]byte, error), chunk int, now func() time.Time, w http.ResponseWriter, r *http.Request) {
	forward := func(ctx context.Context, events []RawEvent, bufs *rawBufs) ([]byte, error) {
		return submit(ctx, events, bufs.out[:0])
	}
	handleScore(&rawPool, decodeRaw, forward, chunk, now, w, r)
}

// errUnencodable marks a verdict JSON cannot carry. encodeVerdicts returns
// it after appending the verdicts before that one, which the handler sends
// before it tears the response.
var errUnencodable = errors.New("unencodable verdict")

// encodeVerdicts turns a verdict submit into a line submit. A verdict
// that answers its event (same user, time and line) reuses the echo the
// event's request line left, and every score goes through the request's
// score table: the bytes are AppendVerdict's either way.
func encodeVerdicts(submit func(ctx context.Context, events []stream.Event) ([]stream.Verdict, error)) func(context.Context, []stream.Event, *eventBufs) ([]byte, error) {
	return func(ctx context.Context, events []stream.Event, bufs *eventBufs) ([]byte, error) {
		verdicts, err := submit(ctx, events)
		buf := bufs.out[:0]
		if err != nil {
			return buf, err
		}
		for i := range verdicts {
			v := &verdicts[i]
			var echo []byte
			if i < len(bufs.echo) && v.User == events[i].User && v.Time == events[i].Time && v.Line == events[i].Line {
				echo = bufs.text[bufs.echo[i].start:bufs.echo[i].end]
			}
			if buf, err = appendVerdict(buf, v, echo, &bufs.x); err != nil {
				return buf, fmt.Errorf("%w: %v", errUnencodable, err)
			}
		}
		return buf, nil
	}
}

// stamp gives an event without a time the clock's, and one without a
// user the user "-".
func stamp(ev *stream.Event, now func() time.Time) {
	if ev.Time == 0 {
		ev.Time = now().Unix()
	}
	if ev.User == "" {
		ev.User = "-"
	}
}

// decodeEvent is the replica's line decoder: raw into a stream.Event. A
// canonical line that needs no stamp keeps its bytes in the chunk's text,
// less the closing brace: they are its verdict's {"user":…,"time":…,
// "line":… prefix.
func decodeEvent(raw []byte, ev *stream.Event, bufs *eventBufs, now func() time.Time) error {
	canonical, err := DecodeEvent(raw, ev)
	if err != nil {
		return err
	}
	if bufs.echo == nil {
		bufs.echo = make([]span, 0, cap(bufs.slots))
	}
	var echo span
	if canonical && ev.Time != 0 && ev.User != "" {
		echo.start = len(bufs.text)
		bufs.text = append(bufs.text, raw[:len(raw)-1]...)
		echo.end = len(bufs.text)
	}
	bufs.echo = append(bufs.echo, echo)
	stamp(ev, now)
	return nil
}

// decodeRaw is the router's line decoder: it copies the event's canonical
// line and its decoded user into the chunk's text buffer, and points ev at
// them. A line that is not canonical, or that needs a stamp, is decoded
// into the request's scratch Event and written with AppendRawEvent.
func decodeRaw(raw []byte, ev *RawEvent, bufs *rawBufs, now func() time.Time) error {
	if user, t, ok := ScanEvent(raw); ok && t != 0 && len(user) > 0 {
		start := len(bufs.text)
		bufs.text = append(append(bufs.text, raw...), user...)
		end := len(bufs.text) - len(user)
		*ev = RawEvent{Line: bufs.text[start:end], User: bufs.text[end:], Time: t}
		return nil
	}
	// The scratch is zero between lines: encoding/json's fallback leaves
	// absent fields as it finds them.
	e := &bufs.x
	_, err := DecodeEvent(raw, e)
	if err == nil {
		stamp(e, now)
		bufs.text, *ev = AppendRawEvent(bufs.text, e)
	}
	*e = stream.Event{}
	return err
}

// scoreBufs is one /score request's reusable memory: the body scanner's
// buffer, the chunk's decoded lines, the bytes they point into or echo,
// the chunk's verdict lines, and the tier's own scratch X.
type scoreBufs[S, X any] struct {
	scan  []byte
	slots []S
	text  []byte
	// echo has one span per slot on a replica: where text holds the
	// prefix that slot's verdict shares with its request line, or an
	// empty span.
	echo []span
	out  []byte
	x    X
}

// span is text[start:end].
type span struct{ start, end int }

type (
	// eventBufs is a replica's: its scratch is the request's score table,
	// which a pooled scoreBufs carries from request to request.
	eventBufs = scoreBufs[stream.Event, scoreTable]
	// rawBufs is the router's: its scratch is where it decodes a line it
	// must write again (a local Event would escape to the heap through
	// DecodeEvent's encoding/json fallback, once per line).
	rawBufs = scoreBufs[RawEvent, stream.Event]
)

// eventPool and rawPool recycle the replica's and the router's scoreBufs.
var (
	eventPool = sync.Pool{New: func() any { return new(eventBufs) }}
	rawPool   = sync.Pool{New: func() any { return new(rawBufs) }}
)

// handleScore is the one /score loop. decode turns a request line into
// the chunk's next slot (S is stream.Event on a replica, RawEvent on the
// router), appending any bytes the slot points into, or its verdict
// echoes, to bufs.text, and stamps a timeless event with now. submit
// answers the chunk's slots with their verdict lines, appended to
// bufs.out[:0]. pool holds the *scoreBufs[S, X] it borrows for the
// request.
func handleScore[S, X any](pool *sync.Pool, decode func(raw []byte, slot *S, bufs *scoreBufs[S, X], now func() time.Time) error, submit func(ctx context.Context, slots []S, bufs *scoreBufs[S, X]) ([]byte, error), chunk int, now func() time.Time, w http.ResponseWriter, r *http.Request) {
	if chunk <= 0 {
		chunk = 512
	}
	// Verdicts stream back while the request body is still arriving; on
	// HTTP/1 the server otherwise closes the read side at the first
	// response write. (HTTP/2 is duplex already; the error is ignorable.)
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bufs := pool.Get().(*scoreBufs[S, X])
	if bufs.scan == nil {
		// The three byte buffers a request starts with are one allocation.
		b := make([]byte, scanBuf+writeAt+textBuf)
		bufs.scan = b[:scanBuf:scanBuf]
		bufs.out = b[scanBuf : scanBuf : scanBuf+writeAt]
		bufs.text = b[scanBuf+writeAt : scanBuf+writeAt]
	}
	if cap(bufs.slots) < chunk {
		bufs.slots = make([]S, 0, chunk)
	}
	// A submit that failed may still hold its chunk (a cancelled Submit's
	// batch stays queued), so only a request whose every submit returned
	// cleanly gives its buffers back.
	reuse := true
	defer func() {
		if reuse && cap(bufs.text) <= maxPooledBuf && cap(bufs.out) <= maxPooledBuf {
			clear(bufs.slots[:cap(bufs.slots)])
			pool.Put(bufs)
		}
	}()
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(bufs.scan, 1<<20)

	// A request that ended mid-chunk left its last slots' text and echo.
	slots := bufs.slots[:0]
	bufs.text, bufs.echo = bufs.text[:0], bufs.echo[:0]
	lineNo, wrote := 0, false
	flush := func() bool {
		if len(slots) == 0 {
			return true
		}
		buf, err := submit(r.Context(), slots, bufs)
		bufs.out = buf[:0]
		slots, bufs.text, bufs.echo = slots[:0], bufs.text[:0], bufs.echo[:0]
		if err != nil {
			reuse = false
		}
		if errors.Is(err, errUnencodable) {
			// A verdict JSON cannot carry must not drop out of the stream:
			// every later verdict would land on the wrong event. Send the
			// ones before it and tear the response, so the client sees a
			// torn stream, never a short one.
			w.Write(buf)
			http.NewResponseController(w).Flush()
			fmt.Fprintf(os.Stderr, "serve: aborting /score response: %v\n", err)
			panic(http.ErrAbortHandler)
		}
		if err != nil {
			if !wrote {
				status := http.StatusServiceUnavailable
				if errors.Is(err, stream.ErrOverloaded) {
					status = http.StatusTooManyRequests
					w.Header().Set("Retry-After", "1")
				}
				http.Error(w, err.Error(), status)
				return false
			}
			// Headers are already out; surface the error in-band.
			writeRecord(w, ErrorRecord{Error: err.Error(), Code: errCode(err)})
			return false
		}
		// The chunk's verdicts go out a writeAt-sized Write at a time.
		wrote = wrote || len(buf) > 0
		for len(buf) > 0 {
			n := min(len(buf), writeAt)
			w.Write(buf[:n])
			buf = buf[n:]
		}
		return true
	}

	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		// Decode straight into a zeroed slot of the chunk: a local Event
		// would escape to the heap through DecodeEvent's encoding/json
		// fallback, once per line, and that fallback leaves absent fields
		// as it finds them.
		var zero S
		slots = append(slots, zero)
		if err := decode(raw, &slots[len(slots)-1], bufs, now); err != nil {
			slots = slots[:len(slots)-1]
			// Flush pending events first so the error record lands in input
			// order, then keep going: the line is lost, the stream is not.
			if !flush() {
				return
			}
			writeRecord(w, ErrorRecord{
				Error: fmt.Sprintf("line %d: %v", lineNo, err),
				Code:  CodeUnparsable,
				Line:  lineNo,
			})
			wrote = true
			continue
		}
		if len(slots) >= chunk {
			if !flush() {
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		rec := ErrorRecord{Error: err.Error(), Code: CodeInternal}
		if errors.Is(err, bufio.ErrTooLong) {
			// An over-long line is bad input, not a replica fault: score the
			// events before it, then report the line as unparsable so no
			// client (or router) retries it. The scanner cannot resume past
			// it, so the stream ends here.
			if !flush() {
				return
			}
			// Drain the rest of the body (bounded) so the connection stays
			// reusable: closing it after a keep-alive response races the
			// client's next request into an EOF, which the fleet router
			// takes for a dead replica.
			io.CopyN(io.Discard, r.Body, 8<<20)
			rec = ErrorRecord{
				Error: fmt.Sprintf("line %d: %v", lineNo+1, err),
				Code:  CodeUnparsable,
				Line:  lineNo + 1,
			}
		}
		writeRecord(w, rec)
		return
	}
	flush()
}

const (
	// scanBuf is the body scanner's starting buffer; a longer line grows
	// the scanner's own copy, up to 1 MiB.
	scanBuf = 64 << 10
	// writeAt is the verdict bytes the handler gathers per Write: few
	// Writes per chunk.
	writeAt = 32 << 10
	// textBuf is the chunk's text buffer to start with: a default
	// 512-event chunk of ordinary lines needs about 40 KiB.
	textBuf = 64 << 10
	// maxPooledBuf drops a buffer long lines grew from the pool; a default
	// 512-event chunk of ordinary lines needs about an eighth of it.
	maxPooledBuf = 1 << 20
)

// writeRecord writes one in-band error record, as json.Encoder would.
func writeRecord(w io.Writer, rec ErrorRecord) {
	b, _ := json.Marshal(rec) // strings and an int: Marshal cannot fail
	w.Write(append(b, '\n'))
}
