package faults

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Replica fault modes for the fleet tier: how a wrapped replica handler
// misbehaves while its ReplicaFault is armed. Each mode maps to a failure
// the fleet router must survive — a kill -9 (Down), a wedged-but-accepting
// node (Blackhole), a response severed mid-stream (Torn), and a node
// running at a crawl (Slow).
const (
	// ReplicaDown refuses every request outright (connection-level failure
	// from the client's view: the hijacked connection is closed without a
	// response).
	ReplicaDown = iota
	// ReplicaBlackhole accepts the request and never answers until the
	// fault clears or the hold duration elapses — the client's timeout is
	// what notices.
	ReplicaBlackhole
	// ReplicaTorn writes a valid response prefix, then severs the
	// connection mid-body: the torn-handoff drill (the router must treat
	// the suffix as unacknowledged and fail it over).
	ReplicaTorn
	// ReplicaSlow delays each response by the hold duration but answers
	// correctly — tail latency, not failure.
	ReplicaSlow
)

// ReplicaFault wraps one replica's HTTP handler with a switchable fault
// mode. Unlike the call-counter injectors, replica faults are phase
// switches: a soak arms a mode on one replica (crash it, wedge it), lets
// the router react, clears it, and asserts recovery. Probe routes can be
// exempted to simulate a replica that looks healthy to probes while its
// data path misbehaves (the gray failure the data-path ejection exists
// for).
type ReplicaFault struct {
	mode   atomic.Int64 // -1 = off
	hold   atomic.Int64 // nanoseconds for Blackhole/Slow
	hits   atomic.Int64
	spare  atomic.Bool  // exempt /healthz+/readyz from the fault
	tornAt atomic.Int64 // bytes of valid prefix before Torn severs
}

// NewReplicaFault returns an unarmed wrapper (passes through untouched).
func NewReplicaFault() *ReplicaFault {
	f := &ReplicaFault{}
	f.mode.Store(-1)
	f.hold.Store(int64(50 * time.Millisecond))
	return f
}

// Set arms the fault in the given mode (ReplicaDown, ReplicaBlackhole,
// ReplicaTorn, ReplicaSlow).
func (f *ReplicaFault) Set(mode int) { f.mode.Store(int64(mode)) }

// ClearFault disarms the fault; requests pass through from the next one on.
func (f *ReplicaFault) ClearFault() { f.mode.Store(-1) }

// SetHold sets the Blackhole/Slow hold duration.
func (f *ReplicaFault) SetHold(d time.Duration) { f.hold.Store(int64(d)) }

// SetTornAt sets how many response bytes ReplicaTorn lets through before
// severing (0 severs immediately after headers).
func (f *ReplicaFault) SetTornAt(n int) { f.tornAt.Store(int64(n)) }

// SpareProbes exempts /healthz and /readyz from the fault when v is true:
// the replica keeps looking healthy while its data path fails — the gray
// failure only data-path ejection catches.
func (f *ReplicaFault) SpareProbes(v bool) { f.spare.Store(v) }

// Hits returns how many requests the fault has intercepted.
func (f *ReplicaFault) Hits() int64 { return f.hits.Load() }

// tornWriter forwards up to limit bytes then reports the connection
// severed; the handler's next write fails and the client sees a truncated
// body.
type tornWriter struct {
	http.ResponseWriter
	remaining int64
	severed   bool
}

func (t *tornWriter) Write(p []byte) (int, error) {
	if t.severed {
		return 0, http.ErrAbortHandler
	}
	if int64(len(p)) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.ResponseWriter.Write(p)
	t.remaining -= int64(n)
	if t.remaining <= 0 {
		t.severed = true
		// Abort the handler so no further (valid) bytes follow; the
		// server resets the connection, which is exactly what a torn
		// network handoff looks like from the router.
		if f, ok := t.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	return n, err
}

// Wrap returns next behind the fault switch.
func (f *ReplicaFault) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mode := f.mode.Load()
		if mode < 0 || (f.spare.Load() && (r.URL.Path == "/healthz" || r.URL.Path == "/readyz")) {
			next.ServeHTTP(w, r)
			return
		}
		f.hits.Add(1)
		switch mode {
		case ReplicaDown:
			// No bytes, no status: the closest an in-process server gets to
			// kill -9. ErrAbortHandler makes net/http drop the connection.
			panic(http.ErrAbortHandler)
		case ReplicaBlackhole:
			// Drain the body: the wedge happens after the bytes are accepted,
			// and net/http only notices a client disconnect (and cancels the
			// request context) once the body has been consumed.
			io.Copy(io.Discard, r.Body)
			t := time.NewTimer(time.Duration(f.hold.Load()))
			defer t.Stop()
			select {
			case <-r.Context().Done():
			case <-t.C:
			}
			panic(http.ErrAbortHandler)
		case ReplicaTorn:
			next.ServeHTTP(&tornWriter{ResponseWriter: w, remaining: f.tornAt.Load()}, r)
		case ReplicaSlow:
			io.Copy(io.Discard, r.Body)
			t := time.NewTimer(time.Duration(f.hold.Load()))
			defer t.Stop()
			select {
			case <-r.Context().Done():
				panic(http.ErrAbortHandler)
			case <-t.C:
			}
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}
