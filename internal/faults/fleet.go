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
	// ReplicaTorn sends the response headers, then severs the connection
	// at the first body write: the torn-handoff drill (the router must
	// treat the unacknowledged body as lost and fail it over).
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
	mode  atomic.Int64 // -1 = off
	hold  atomic.Int64 // nanoseconds for Blackhole/Slow
	hits  atomic.Int64
	spare atomic.Bool // exempt /healthz+/readyz from the fault
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

// SpareProbes exempts /healthz and /readyz from the fault when v is true:
// the replica keeps looking healthy while its data path fails — the gray
// failure only data-path ejection catches.
func (f *ReplicaFault) SpareProbes(v bool) { f.spare.Store(v) }

// Hits returns how many requests the fault has intercepted.
func (f *ReplicaFault) Hits() int64 { return f.hits.Load() }

// tornWriter lets the response headers through, then reports the
// connection severed at the first body write: the client sees a status
// line and a truncated (empty) body.
type tornWriter struct{ http.ResponseWriter }

func (t tornWriter) Write([]byte) (int, error) {
	t.ResponseWriter.Write(nil) // commits the headers
	// Abort the handler so no valid bytes follow; the server resets the
	// connection, which is exactly what a torn network handoff looks like
	// from the router.
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
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
			next.ServeHTTP(tornWriter{w}, r)
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
