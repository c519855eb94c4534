package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clmids/internal/serve"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// Spans are recorded by the benchmark's own wrappers around the public
// calls into each layer; nothing inside the program is instrumented.
//
//	client           one request, as the load generator sees it
//	serve            a /score handler (router front or replica)
//	fleet            Router.Route
//	hop              one downstream router call, request to response EOF
//	stream           Service.SubmitContext
//	tuning           one shard scorer's Score (runs on the shard worker)
//	cascade.triage   the cascade's int8 rung inside it
//	cascade.confirm  the cascade's f64 rung inside it
//
// The request id travels in headers between processes' worth of HTTP hops
// and in the context within one; scorer spans carry no request id (a shard
// worker coalesces both clients' submits) and are charged to the stream
// spans they overlap on their replica.
type span struct {
	Name   string
	ID     int64
	Parent int64
	Req    int64
	Rep    int // replica index; -1 for the client and the router
	Lane   int // shard index for scorer spans
	Client int // issuing client, client spans only
	Start  time.Duration
	End    time.Duration
	Inputs int // lines scored, scorer spans only
}

const (
	reqHeader    = "X-Bench-Request"
	parentHeader = "X-Bench-Parent"
)

// recorder keeps spans in memory while on; the trace is written and
// attributed after the run.
type recorder struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() time.Duration { return time.Since(r.base) }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanCtxKey struct{}

// spanCtx is the request id and the enclosing span, carried in contexts.
type spanCtx struct{ req, parent int64 }

func fromCtx(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc, ok
}

type submitFunc func(ctx context.Context, events []stream.Event) ([]stream.Verdict, error)

// tracedScore is the /score route of a traced server: the same
// serve.HandleScoreFunc the production handlers run, over a timed submit,
// inside a "serve" span whose parent arrives in the request headers.
func (r *recorder) tracedScore(rep int, ready func() bool, submit submitFunc, submitName string) http.HandlerFunc {
	timed := r.timedSubmit(rep, submitName, submit)
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST NDJSON events", http.StatusMethodNotAllowed)
			return
		}
		if !ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		id, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get(parentHeader), 10, 64)
		s := span{Name: "serve", ID: r.nextID.Add(1), Parent: parent, Req: id, Rep: rep, Start: r.now()}
		ctx := context.WithValue(req.Context(), spanCtxKey{}, spanCtx{req: id, parent: s.ID})
		serve.HandleScoreFunc(timed, chunk, w, req.WithContext(ctx))
		s.End = r.now()
		r.add(s)
	}
}

func (r *recorder) timedSubmit(rep int, name string, submit submitFunc) submitFunc {
	return func(ctx context.Context, events []stream.Event) ([]stream.Verdict, error) {
		sc, _ := fromCtx(ctx)
		s := span{Name: name, ID: r.nextID.Add(1), Parent: sc.parent, Req: sc.req, Rep: rep, Start: r.now()}
		v, err := submit(context.WithValue(ctx, spanCtxKey{}, spanCtx{req: sc.req, parent: s.ID}), events)
		s.End = r.now()
		r.add(s)
		return v, err
	}
}

// timedTransport is the router's downstream RoundTripper: a "hop" span
// from the request until the response body is drained, forwarding the
// request id to the replica.
type timedTransport struct {
	rec   *recorder
	base  http.RoundTripper
	repOf map[string]int // host:port → replica index
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := fromCtx(req.Context())
	if !ok { // health probes and other calls outside a traced request
		return t.base.RoundTrip(req)
	}
	s := span{Name: "hop", ID: t.rec.nextID.Add(1), Parent: sc.parent, Req: sc.req, Rep: t.repOf[req.URL.Host], Start: t.rec.now()}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(sc.req, 10))
	req.Header.Set(parentHeader, strconv.FormatInt(s.ID, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// timedBody ends its span at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// lane is one shard's scorer stack; cur is the open "tuning" span, which
// the rung spans inside it name as parent. One worker per shard calls
// Score, so spans on a lane never overlap.
type lane struct {
	rep, shard int
	cur        atomic.Int64
}

// timedScorer wraps a scorer in spans. It is Replicable (the cascade
// requires its rungs to be) and passes the cache and cascade counters
// through so Service.Stats reads the same under tracing.
type timedScorer struct {
	inner tuning.Scorer
	rec   *recorder
	name  string
	lane  *lane
}

func (s *timedScorer) Score(lines []string) ([]float64, error) {
	sp := span{Name: s.name, ID: s.rec.nextID.Add(1), Rep: s.lane.rep, Lane: s.lane.shard, Start: s.rec.now(), Inputs: len(lines)}
	if s.name == "tuning" {
		s.lane.cur.Store(sp.ID)
	} else {
		sp.Parent = s.lane.cur.Load()
	}
	out, err := s.inner.Score(lines)
	sp.End = s.rec.now()
	s.rec.add(sp)
	return out, err
}

func (s *timedScorer) Replicate() tuning.Scorer {
	return &timedScorer{inner: s.inner.(tuning.Replicable).Replicate(), rec: s.rec, name: s.name, lane: &lane{rep: s.lane.rep, shard: -1}}
}

func (s *timedScorer) CacheStats() tuning.CacheStats {
	if cs, ok := s.inner.(tuning.CacheStatser); ok {
		return cs.CacheStats()
	}
	return tuning.CacheStats{}
}

func (s *timedScorer) CascadeStats() tuning.CascadeStats {
	if cs, ok := s.inner.(tuning.CascadeStatser); ok {
		return cs.CascadeStats()
	}
	return tuning.CascadeStats{}
}

// attribution is each layer's share of client-observed time, summed over
// the traced requests.
type attribution struct {
	layer    map[string]time.Duration
	total    time.Duration // Σ client span durations; Σ layer == total
	requests int
	busy     time.Duration // Σ tuning span durations
	inputs   int           // Σ tuning span inputs
}

type node struct {
	s        *span
	lo, hi   time.Duration // s clipped to its parent
	children []*node
}

// attribute charges every instant of every client span to the innermost
// span active at that instant, walking down the span tree and splitting an
// instant evenly between concurrently active children (two replicas of a
// fleet request, two shards of a submit). Each "tuning" span on replica r
// is a child of every stream span on r it overlaps: it may be scoring the
// other client's events, but the submit waits on it either way.
func attribute(spans []span) attribution {
	at := attribution{layer: map[string]time.Duration{}}
	self := map[string]float64{} // ns; summed in float so the splits lose nothing
	kids := map[int64][]*span{}
	scorers := map[int][]*span{} // replica → tuning spans by start
	var roots []*span
	maxScore := time.Duration(0)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "client":
			roots = append(roots, s)
		case s.Name == "tuning":
			scorers[s.Rep] = append(scorers[s.Rep], s)
			maxScore = max(maxScore, s.End-s.Start)
			at.busy += s.End - s.Start
			at.inputs += s.Inputs
		default:
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, l := range scorers {
		sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	}
	var build func(s *span, lo, hi time.Duration) *node
	build = func(s *span, lo, hi time.Duration) *node {
		n := &node{s: s, lo: max(s.Start, lo), hi: min(s.End, hi)}
		if n.lo >= n.hi {
			return nil
		}
		add := func(c *span) {
			if cn := build(c, n.lo, n.hi); cn != nil {
				n.children = append(n.children, cn)
			}
		}
		for _, c := range kids[s.ID] {
			add(c)
		}
		if s.Name == "stream" {
			l := scorers[s.Rep]
			i := sort.Search(len(l), func(i int) bool { return l[i].Start >= s.Start-maxScore })
			for ; i < len(l) && l[i].Start < s.End; i++ {
				if l[i].End > s.Start {
					add(l[i])
				}
			}
		}
		return n
	}
	for _, root := range roots {
		tree := build(root, root.Start, root.End)
		if tree == nil {
			continue
		}
		at.requests++
		at.total += tree.hi - tree.lo
		var edges []time.Duration
		var collect func(n *node)
		collect = func(n *node) {
			edges = append(edges, n.lo, n.hi)
			for _, c := range n.children {
				collect(c)
			}
		}
		collect(tree)
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		for k := 1; k < len(edges); k++ {
			a, b := edges[k-1], edges[k]
			if b > a {
				charge(tree, a, b, float64(b-a), self)
			}
		}
	}
	for name, ns := range self {
		at.layer[name] = time.Duration(math.Round(ns))
	}
	return at
}

// charge gives the elementary interval [a,b) of n, weighted w, to n's
// self time or splits it between its children active throughout [a,b).
func charge(n *node, a, b time.Duration, w float64, self map[string]float64) {
	var active []*node
	for _, c := range n.children {
		if c.lo <= a && c.hi >= b {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		self[n.s.Name] += w
		return
	}
	for _, c := range active {
		charge(c, a, b, w/float64(len(active)), self)
	}
}

// writeTrace writes spans in the trace-event format ("ph":"X"), which
// chrome://tracing and Perfetto open offline. pid 0 is the load generator,
// 1 the router, 2+ the replicas.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	clientOf := map[int64]int{}
	for _, s := range spans {
		if s.Name == "client" {
			clientOf[s.Req] = s.Client
		}
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		e := event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Rep + 2, Tid: clientOf[s.Req],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
		if s.Name == "client" {
			e.Pid = 0
		}
		if s.Req == 0 {
			e.Tid = 10 + s.Lane
			e.Args["inputs"] = s.Inputs
		}
		evs = append(evs, e)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
