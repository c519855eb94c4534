package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clmids/internal/serve"
	"clmids/internal/stream"
)

// Config parameterizes a Router. Zero values take the documented defaults.
// Retries and rolling reloads have no settings of their own: the retry
// backoff scales with ProbeInterval, the reload waits with RequestTimeout,
// and each replica gets 4 attempts per chunk.
type Config struct {
	// Replicas are the downstream clmserve base URLs
	// (e.g. http://127.0.0.1:8081). At least one is required; membership is
	// fixed for the router's lifetime (health decides rotation, not
	// membership).
	Replicas []string
	// ProbeInterval is the health-probe period per replica, and the bound
	// on each probe request (default 500ms). The retry backoff scales with
	// it: ProbeInterval/10 before the first retry, doubling up to
	// 4×ProbeInterval.
	ProbeInterval time.Duration
	// RequestTimeout bounds each proxied /score, export, and import call
	// (default 15s). Twice it bounds, per replica, each wait inside a
	// rolling reload.
	RequestTimeout time.Duration
	// Chunk caps events per proxied Submit (default 512).
	Chunk int
	// BundleDir is the default rolling-reload source (empty: /reload
	// requires ?bundle=dir).
	BundleDir string
	// Client is the HTTP client for all downstream calls (default: a
	// dedicated client with no global timeout — per-call contexts bound
	// every request).
	Client *http.Client
	// Logf receives operational events (ejections, readmissions, failovers,
	// reloads). Default: discard.
	Logf func(format string, args ...any)
}

// ejectAfter is the consecutive probe failures that eject a replica from
// the ring; readmitAfter the consecutive successes that readmit it.
// Data-path transport failures eject immediately — the probe thresholds
// only smooth flapping.
const ejectAfter, readmitAfter = 2, 2

// retryAttempts is the attempt budget per target for retryable failures
// (429/5xx) before the router gives up on it; jitterSeed seeds the backoff
// jitter, so a run's retry delays replay.
const retryAttempts, jitterSeed = 4, 1

// backoff returns the delay before the first retry and the cap the
// jittered exponential backoff doubles up to: 50ms and 2s at the default
// ProbeInterval. A 429's Retry-After overrides when longer.
func (c Config) backoff() (base, ceiling time.Duration) {
	return c.ProbeInterval / 10, 4 * c.ProbeInterval
}

// reloadWait bounds, per replica, each wait inside a rolling reload: for
// the rest of the fleet to be healthy, for the drained replica to go idle,
// for its /reload, and for /readyz after it. 30s at the default
// RequestTimeout.
func (c Config) reloadWait() time.Duration { return 2 * c.RequestTimeout }

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.Chunk <= 0 {
		c.Chunk = 512
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ErrNoReplicas is returned by Route when no healthy, config-verified
// replica is in rotation (the fleet-level analogue of "scorer loading");
// the HTTP layer maps it to 503.
var ErrNoReplicas = errors.New("fleet: no healthy replica in rotation")

// errUnroutable marks events the fleet could not score after exhausting
// retries and failovers.
var errUnroutable = errors.New("fleet: events unroutable")

// replica is the router's view of one downstream clmserve: probe-driven
// health state plus counters. All fields except inflight are guarded by
// Router.mu.
type replica struct {
	addr string

	ready    bool // /readyz passing (per the ejection/readmission machine)
	cfgOK    bool // /stats config+modality verified against the fleet's
	draining bool // rolling reload holds it out of rotation

	consecFails, consecOKs  int
	ejections, readmissions int64

	inflight atomic.Int64 // data-path calls in progress (drain gate)
}

// Router consistent-hashes user → replica over the configured fleet and
// proxies the NDJSON /score protocol with retries, backoff, and session
// failover. Create with New, then Start the health probes.
type Router struct {
	cfg Config

	mu      sync.Mutex
	reps    []*replica
	byAddr  map[string]*replica
	ring    *Ring
	owners  map[string]string // user → replica addr holding their window
	shadows map[string]*stream.SessionWindow

	sessCfgKnown bool
	sessCfg      stream.Config
	modality     string
	highWater    int64
	lastSweep    int64

	rngMu sync.Mutex
	rng   *rand.Rand

	reloadMu sync.Mutex // serializes rolling reloads

	// now stamps events that arrive without a time. It is time.Now except
	// in tests, which fix it so what the replicas receive is reproducible.
	now func() time.Time

	events, retries, failovers, imports, exports atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a Router over cfg.Replicas. All replicas start out of
// rotation; Start's first probe round admits the healthy ones.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: at least one replica required")
	}
	rt := &Router{
		cfg:     cfg,
		byAddr:  make(map[string]*replica, len(cfg.Replicas)),
		owners:  make(map[string]string),
		shadows: make(map[string]*stream.SessionWindow),
		ring:    BuildRing(nil),
		rng:     rand.New(rand.NewSource(jitterSeed)),
		stop:    make(chan struct{}),
		now:     time.Now,
	}
	for _, a := range cfg.Replicas {
		a = strings.TrimRight(a, "/")
		if a == "" {
			return nil, errors.New("fleet: empty replica address")
		}
		if _, dup := rt.byAddr[a]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %s", a)
		}
		rep := &replica{addr: a}
		rt.reps = append(rt.reps, rep)
		rt.byAddr[a] = rep
	}
	return rt, nil
}

// Start runs one synchronous probe round (so a healthy fleet is routable
// immediately) and launches the per-replica probe loops.
func (rt *Router) Start() {
	var wg sync.WaitGroup
	for _, rep := range rt.reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.probeOnce(rep)
		}(rep)
	}
	wg.Wait()
	for _, rep := range rt.reps {
		rt.wg.Add(1)
		go rt.probeLoop(rep)
	}
}

// Stop halts the probe loops. In-flight Routes are not interrupted.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// ---- health probing ----

func (rt *Router) probeLoop(rep *replica) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeOnce(rep)
		}
	}
}

// probeOnce checks /readyz and advances rep's state machine by the answer.
func (rt *Router) probeOnce(rep *replica) { rt.admit(rep, rt.checkReady(rep), 1) }

func (rt *Router) checkReady(rep *replica) bool {
	return rt.request(context.Background(), rep, false, rt.cfg.ProbeInterval, http.MethodGet, "/readyz", nil, nil) == nil
}

// verifyConfig reports whether rep's session config and modality match the
// fleet's, fetching its /stats unless it is verified already. The first
// verified replica donates the fleet-wide reference.
func (rt *Router) verifyConfig(rep *replica) bool {
	rt.mu.Lock()
	verified := rep.cfgOK
	rt.mu.Unlock()
	if verified {
		return true
	}
	var st struct {
		Config   stream.Config `json:"config"`
		Modality string        `json:"modality"`
	}
	err := rt.request(context.Background(), rep, false, rt.cfg.ProbeInterval, http.MethodGet, "/stats", nil, func(body io.Reader) error {
		return json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&st)
	})
	if err != nil {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.sessCfgKnown {
		rt.sessCfgKnown = true
		rt.sessCfg = st.Config
		rt.modality = st.Modality
		rep.cfgOK = true
		return true
	}
	if st.Config != rt.sessCfg || st.Modality != rt.modality {
		rt.cfg.Logf("fleet: replica %s config/modality mismatch (modality %q vs fleet %q) — held out of rotation",
			rep.addr, st.Modality, rt.modality)
		return false
	}
	rep.cfgOK = true
	return true
}

// admit advances the ejection/readmission state machine by one /readyz
// answer, which counts as oks successes when ok: ejectAfter consecutive
// failures take a replica out of the ring, readmitAfter consecutive
// successes put it back. A passing answer counts only once the replica's
// session config and modality are re-verified off /stats (verifyConfig):
// a replica whose semantics drifted from the fleet's never rejoins the
// ring, because mirrored shadow windows and migrated checkpoints would
// silently mis-score there.
func (rt *Router) admit(rep *replica, ok bool, oks int) {
	ok = ok && rt.verifyConfig(rep)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ok {
		rep.consecFails = 0
		rep.consecOKs += oks
		if !rep.ready && rep.consecOKs >= readmitAfter && rep.cfgOK {
			rep.ready = true
			rep.readmissions++
			rt.rebuildRingLocked()
			rt.cfg.Logf("fleet: replica %s readmitted (%d in rotation)", rep.addr, rt.healthyLocked())
		}
		return
	}
	rep.consecOKs = 0
	rep.consecFails++
	if rep.ready && rep.consecFails >= ejectAfter {
		rt.ejectLocked(rep, "probe failures")
	}
}

// eject takes a replica out of rotation immediately (data-path failures
// don't wait for probe thresholds — a torn connection means its session
// state is suspect and its users must fail over now).
func (rt *Router) eject(rep *replica, reason string) {
	rt.mu.Lock()
	rt.ejectLocked(rep, reason)
	rt.mu.Unlock()
}

func (rt *Router) ejectLocked(rep *replica, reason string) {
	if !rep.ready {
		return
	}
	rep.ready = false
	rep.cfgOK = false // re-verify semantics on the way back in
	rep.consecOKs = 0
	rep.ejections++
	rt.rebuildRingLocked()
	rt.cfg.Logf("fleet: replica %s ejected (%s; %d in rotation)", rep.addr, reason, rt.healthyLocked())
}

func (rt *Router) healthyLocked() int {
	n := 0
	for _, r := range rt.reps {
		if r.ready && !r.draining {
			n++
		}
	}
	return n
}

func (rt *Router) rebuildRingLocked() {
	addrs := make([]string, 0, len(rt.reps))
	for _, r := range rt.reps {
		if r.ready && !r.draining {
			addrs = append(addrs, r.addr)
		}
	}
	rt.ring = BuildRing(addrs)
}

// Ready reports whether the router can serve: at least one healthy replica
// and the fleet session config discovered.
func (rt *Router) Ready() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sessCfgKnown && !rt.ring.Empty()
}

// ---- routing ----

// routeLines scores one chunk of events across the fleet: partition by
// ring, deliver each group with migration/retry, fail surviving events
// over to successors as replicas fall out, and append the replicas'
// verdict lines to buf in input order, each as the replica sent it when it
// is in the canonical shape. This is the router's /score submit.
func (rt *Router) routeLines(ctx context.Context, evs []serve.RawEvent, buf []byte) ([]byte, error) {
	if len(evs) == 0 {
		return buf, nil
	}
	rt.events.Add(int64(len(evs)))
	out := &scatter{lines: make([][]byte, len(evs))}
	defer out.release()
	// pending holds the positions of the events still awaiting verdicts.
	pending := make([]int, len(evs))
	for i := range pending {
		pending[i] = i
	}
	var firstErr error
	// Each depth re-partitions over the current (post-ejection) ring, so
	// the loop terminates once every replica has had its chance.
	for depth := 0; len(pending) > 0; depth++ {
		if depth > len(rt.reps) {
			if firstErr == nil {
				firstErr = errUnroutable
			}
			return buf, fmt.Errorf("fleet: giving up after %d failovers: %w", depth-1, firstErr)
		}
		groups := rt.partition(evs, pending)
		if groups == nil {
			if firstErr != nil {
				return buf, fmt.Errorf("%w (last error: %v)", ErrNoReplicas, firstErr)
			}
			return buf, ErrNoReplicas
		}
		if depth > 0 {
			rt.failovers.Add(1)
		}
		var (
			wg     sync.WaitGroup
			resMu  sync.Mutex
			failed []int
		)
		for addr, pos := range groups {
			wg.Add(1)
			go func(addr string, pos []int) {
				defer wg.Done()
				rem, err := rt.deliverGroup(ctx, addr, evs, pos, out)
				resMu.Lock()
				failed = append(failed, rem...)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				resMu.Unlock()
			}(addr, pos)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return buf, err
		}
		// A terminal error (overload budget exhausted, unparsable echo)
		// stops the chunk: retrying elsewhere cannot help.
		if firstErr != nil && !errors.Is(firstErr, errFailover) {
			return buf, firstErr
		}
		firstErr = nil
		pending = failed
	}
	for _, line := range out.lines {
		buf = append(buf, line...)
	}
	return buf, nil
}

// scatter holds one routed chunk's verdict lines by input position, and
// the replies whose buffers they point into until the chunk is assembled.
type scatter struct {
	lines [][]byte

	mu      sync.Mutex
	replies []*reply
}

// keep scatters rp's lines to the positions of the events they answer and
// holds rp until release.
func (s *scatter) keep(rp *reply, pos []int) {
	for k := range rp.ends {
		s.lines[pos[k]] = rp.line(k)
	}
	s.mu.Lock()
	s.replies = append(s.replies, rp)
	s.mu.Unlock()
}

// release recycles every reply the chunk held.
func (s *scatter) release() {
	for _, rp := range s.replies {
		rp.free()
	}
}

// errFailover wraps group failures that should re-route to a successor
// rather than abort the chunk.
var errFailover = errors.New("fleet: failover")

// partition groups the pending positions by the current ring owner of
// each event's user, preserving per-user event order. nil when the ring
// is empty.
func (rt *Router) partition(evs []serve.RawEvent, pending []int) map[string][]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ring.Empty() || !rt.sessCfgKnown {
		return nil
	}
	// Count each owner's share first, so every group is an exact slice of
	// one backing array.
	owners := make([]string, len(pending))
	counts := make(map[string]int, len(rt.reps))
	for i, p := range pending {
		owners[i] = rt.ring.owner(fnv1a(evs[p].User))
		counts[owners[i]]++
	}
	backing := make([]int, len(pending))
	groups := make(map[string][]int, len(counts))
	for addr, n := range counts {
		groups[addr], backing = backing[:0:n], backing[n:]
	}
	for i, p := range pending {
		groups[owners[i]] = append(groups[owners[i]], p)
	}
	return groups
}

// deliverGroup sends one replica's share of a chunk: migrate any users
// whose windows live elsewhere, then score with retry/backoff.
// The group is the events of evs at positions pos. Verdicts received are
// committed — their lines scatter into out and fold into the shadows
// immediately, so a mid-group failure re-routes only the unanswered
// suffix. Returns the positions still unscored; err wraps errFailover when
// the caller should re-route them.
func (rt *Router) deliverGroup(ctx context.Context, addr string, evs []serve.RawEvent, pos []int, out *scatter) ([]int, error) {
	rep := rt.byAddr[addr]
	if err := rt.migrate(ctx, rep, evs, pos); err != nil {
		rt.eject(rep, fmt.Sprintf("session import failed: %v", err))
		return pos, fmt.Errorf("%w: %v", errFailover, err)
	}
	delay, ceiling := rt.cfg.backoff()
	lastClass := classInternal
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			rt.retries.Add(1)
		}
		rp, class, retryAfter, err := rt.scoreOnce(ctx, rep, evs, pos)
		if rp != nil && len(rp.ends) > 0 {
			n := len(rp.ends)
			rt.applyVerdicts(addr, evs, pos[:n], rp)
			out.keep(rp, pos)
			pos = pos[n:]
		} else {
			rp.free()
		}
		if len(pos) == 0 {
			return nil, nil
		}
		lastClass = class
		switch class {
		case classTransport:
			// The connection tore, the replica bounced mid-stream, or it
			// answered 503: events past the last verdict may be
			// half-ingested with no verdict to show. Eject — its window
			// state is superseded by the shadows — and fail the remainder
			// over.
			rt.eject(rep, fmt.Sprintf("score failed: %v", err))
			return pos, fmt.Errorf("%w: %v", errFailover, err)
		case classOverloaded, classInternal:
			// Shed is pre-ingestion by contract, and an internal error
			// rolled the batch back server-side (Process aborts
			// atomically), so the same target retries safely after a
			// jittered backoff; a 429's Retry-After wins when it outlasts
			// our own. After the last attempt there is nothing to wait for.
			if attempt == retryAttempts-1 {
				continue
			}
			d := rt.jitter(delay, retryAfter)
			if err := waitUntil(ctx, d, d, nil); err != nil {
				return pos, err
			}
			delay = min(2*delay, ceiling)
		case classUnparsable:
			// The replica rejected an event line the router sent, which is
			// always canonical: a protocol bug, not a fleet-health problem.
			// Abort the chunk loudly.
			return pos, fmt.Errorf("fleet: replica %s rejected router event encoding: %v", addr, err)
		}
		// If a probe ejected the replica while we backed off, re-route now.
		rt.mu.Lock()
		alive := rep.ready && !rep.draining
		rt.mu.Unlock()
		if !alive {
			return pos, fmt.Errorf("%w: %s left rotation during retries", errFailover, addr)
		}
	}
	// Retry budget exhausted. Persistent overload surfaces to the client
	// as a shed (ErrOverloaded → 429/in-band record: nothing was ingested,
	// the client retries) — dumping the load on a neighbor would just
	// cascade it. Persistent internal errors mark the replica sick:
	// eject it and fail the remainder over.
	if lastClass == classOverloaded {
		return pos, fmt.Errorf("fleet: replica %s still overloaded after %d attempts: %w",
			addr, retryAttempts, stream.ErrOverloaded)
	}
	rt.eject(rep, "retry budget exhausted")
	return pos, fmt.Errorf("%w: %s retry budget exhausted", errFailover, addr)
}

// jitter draws a retry delay uniformly from [d/2, d], or returns
// retryAfter when that is longer.
func (rt *Router) jitter(d, retryAfter time.Duration) time.Duration {
	rt.rngMu.Lock()
	d = d/2 + time.Duration(rt.rng.Int63n(int64(d/2)+1))
	rt.rngMu.Unlock()
	return max(d, retryAfter)
}

// waitUntil polls done every step until it holds or limit has passed, and
// returns ctx's error if ctx ends first. A nil done never holds, so
// waitUntil(ctx, d, d, nil) sleeps d.
func waitUntil(ctx context.Context, limit, step time.Duration, done func() bool) error {
	deadline := time.Now().Add(limit)
	for done == nil || !done() {
		left := time.Until(deadline)
		if left <= 0 {
			return nil
		}
		t := time.NewTimer(min(left, step))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// ---- session migration ----

// migrate lands the windows of the users of evs at positions pos whose
// sessions live on a different replica onto target before their events
// are scored there — the import-before-route rule that keeps an attack
// chain intact across failovers and ring moves. The source of truth is the
// old owner's live export when it is reachable (a drain), and the
// router's shadow windows when it is not (a crash).
func (rt *Router) migrate(ctx context.Context, target *replica, evs []serve.RawEvent, pos []int) error {
	var (
		movers map[string][]string
		seen   map[string]bool
	)
	rt.mu.Lock()
	for _, p := range pos {
		u := evs[p].User
		if o := rt.owners[string(u)]; o != "" && o != target.addr && !seen[string(u)] {
			if seen == nil {
				movers, seen = make(map[string][]string), make(map[string]bool)
			}
			seen[string(u)] = true
			movers[o] = append(movers[o], string(u))
		}
	}
	rt.mu.Unlock()
	if len(movers) == 0 {
		return nil
	}
	// Deterministic order keeps failures reproducible under seeded chaos.
	oldAddrs := make([]string, 0, len(movers))
	for a := range movers {
		oldAddrs = append(oldAddrs, a)
	}
	sort.Strings(oldAddrs)
	for _, oldAddr := range oldAddrs {
		us := movers[oldAddr]
		var buf *bytes.Buffer
		old := rt.byAddr[oldAddr]
		rt.mu.Lock()
		reachable := old.ready
		rt.mu.Unlock()
		if reachable {
			if b, err := rt.exportFrom(ctx, old, us); err == nil {
				buf = b
				rt.exports.Add(1)
			}
		}
		if buf == nil {
			b, err := rt.shadowCheckpoint(us)
			if err != nil {
				return err
			}
			buf = b
		}
		if err := rt.importTo(ctx, target, buf); err != nil {
			return err
		}
		rt.imports.Add(1)
		rt.mu.Lock()
		for _, u := range us {
			rt.owners[u] = target.addr
		}
		rt.mu.Unlock()
	}
	return nil
}

// exportFrom pulls the named users' windows off a live replica.
func (rt *Router) exportFrom(ctx context.Context, rep *replica, users []string) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	// One users= parameter per user: a name may hold any byte, a comma too.
	path := "/sessions/export?" + url.Values{"users": users}.Encode()
	err := rt.request(ctx, rep, true, rt.cfg.RequestTimeout, http.MethodPost, path, nil, func(body io.Reader) error {
		// A torn export body would fail the import checksum anyway; fail
		// fast here and let the caller fall back to shadows.
		_, err := buf.ReadFrom(body)
		return err
	})
	return &buf, err
}

// importTo lands a checkpoint on target's /sessions/import.
func (rt *Router) importTo(ctx context.Context, rep *replica, buf *bytes.Buffer) error {
	return rt.request(ctx, rep, true, rt.cfg.RequestTimeout, http.MethodPost, "/sessions/import", buf.Bytes(), nil)
}

// request makes one call to rep under timeout and hands a 200 reply's body
// to read (nil: the body is not needed). Any other status is an error
// carrying the start of the reply. A data-path call (data) counts in
// rep.inflight, the drain gate of a rolling reload. The rest of the body
// is drained, so the connection is reused.
func (rt *Router) request(ctx context.Context, rep *replica, data bool, timeout time.Duration, method, path string, body []byte, read func(io.Reader) error) error {
	if data {
		rep.inflight.Add(1)
		defer rep.inflight.Add(-1)
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.addr+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if read == nil {
		return nil
	}
	return read(resp.Body)
}

// ---- scoring ----

// Error classes for one proxied /score exchange.
const (
	classOK = iota
	classTransport
	classOverloaded
	classInternal
	classUnparsable
)

// reply is the committed verdict lines of one /score response, kept in a
// pooled buffer: line k is buf[ends[k-1]:ends[k]] (from 0 for k = 0),
// newline included, and times[k] and scores[k] are its time and
// context_score.
type reply struct {
	buf    []byte
	ends   []int
	times  []int64
	scores []float64
}

// replies recycles scoreOnce's replies.
var replies = sync.Pool{New: func() any { return new(reply) }}

// maxPooledReply is the largest reply buffer the pool keeps: a default
// 512-event chunk of ordinary lines fills about an eighth of it.
const maxPooledReply = 1 << 20

func newReply() *reply {
	rp := replies.Get().(*reply)
	rp.buf, rp.ends, rp.times, rp.scores = rp.buf[:0], rp.ends[:0], rp.times[:0], rp.scores[:0]
	return rp
}

// free returns rp to the pool unless long lines grew its buffer past
// maxPooledReply; nothing may use its lines afterwards. A nil rp is a
// no-op.
func (rp *reply) free() {
	if rp != nil && cap(rp.buf) <= maxPooledReply {
		replies.Put(rp)
	}
}

// line returns verdict line k, newline included.
func (rp *reply) line(k int) []byte {
	start := 0
	if k > 0 {
		start = rp.ends[k-1]
	}
	return rp.buf[start:rp.ends[k]]
}

// scoreOnce performs one NDJSON /score exchange for the events of evs at
// positions pos, sending each event's line as it is. The verdict lines of
// the reply it returns are committed on the replica even when err != nil
// (a torn stream yields the committed prefix plus a transport class for
// the rest). A line that is the canonical verdict for its event
// (serve.ScanVerdictFor) is kept byte for byte; any other line
// encoding/json decodes as a verdict is re-encoded by AppendVerdict. The
// reply is nil when no response body was read; the
// caller frees it.
func (rt *Router) scoreOnce(ctx context.Context, rep *replica, evs []serve.RawEvent, pos []int) (*reply, int, time.Duration, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()

	// Not pooled: the transport may still read a request body after Do
	// returns, so its bytes must outlive this call.
	size := len(pos)
	for _, p := range pos {
		size += len(evs[p].Line)
	}
	body := make([]byte, 0, size)
	for _, p := range pos {
		body = append(append(body, evs[p].Line...), '\n')
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+"/score", bytes.NewReader(body))
	if err != nil {
		return nil, classInternal, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, classTransport, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			return nil, classOverloaded, parseRetryAfter(resp.Header.Get("Retry-After")), fmt.Errorf("replica %s overloaded", rep.addr)
		case http.StatusServiceUnavailable:
			// Not serving, whatever its probes say: fail over.
			return nil, classTransport, 0, fmt.Errorf("replica %s not ready", rep.addr)
		}
		return nil, classInternal, 0, fmt.Errorf("replica %s: HTTP %d", rep.addr, resp.StatusCode)
	}

	rp := newReply()
	br := readers.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	var long []byte
	for {
		line, err := readLine(br, &long)
		if err == io.EOF {
			break
		}
		if err != nil {
			return rp, classTransport, 0, fmt.Errorf("replica %s: response stream: %v", rep.addr, err)
		}
		if len(line) == 0 {
			continue
		}
		start := len(rp.buf)
		// A verdict echoes its event's line: check the echo against the
		// bytes sent, and scan only the rest.
		t, score, ok := int64(0), 0.0, false
		if k := len(rp.ends); k < len(pos) {
			t = evs[pos[k]].Time
			score, ok = serve.ScanVerdictFor(line, evs[pos[k]].Line)
		}
		if ok {
			rp.buf = append(append(rp.buf, line...), '\n')
		} else {
			// Error records, and any line that is not the canonical verdict
			// for its event.
			var probe struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if json.Unmarshal(line, &probe) == nil && probe.Error != "" {
				class := classInternal
				switch probe.Code {
				case serve.CodeOverloaded:
					class = classOverloaded
				case serve.CodeUnparsable:
					class = classUnparsable
				}
				return rp, class, 0, fmt.Errorf("replica %s: %s", rep.addr, probe.Error)
			}
			var v stream.Verdict
			if err := json.Unmarshal(line, &v); err != nil {
				return rp, classTransport, 0, fmt.Errorf("replica %s: bad verdict line: %v", rep.addr, err)
			}
			// JSON numbers are finite, so the re-encode cannot fail.
			rp.buf, _ = serve.AppendVerdict(rp.buf, &v)
			t, score = v.Time, v.ContextScore
		}
		if len(rp.ends) == len(pos) {
			rp.buf = rp.buf[:start]
			return rp, classTransport, 0, fmt.Errorf("replica %s: more verdicts than events", rep.addr)
		}
		rp.ends = append(rp.ends, len(rp.buf))
		rp.times = append(rp.times, t)
		rp.scores = append(rp.scores, score)
	}
	if len(rp.ends) < len(pos) {
		// Torn mid-response: the prefix committed, the suffix is unknown.
		return rp, classTransport, 0, fmt.Errorf("replica %s: response truncated at %d/%d verdicts", rep.addr, len(rp.ends), len(pos))
	}
	return rp, classOK, 0, nil
}

// readers recycles scoreOnce's response readers.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 16<<10) }}

// readLine returns the next line of br without its newline, assembling a
// line longer than br's buffer in *long. It returns io.EOF at the end of
// the stream, and io.ErrUnexpectedEOF when the stream ends mid-line: a
// replica ends every line it sends, so an unended one is torn.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*long = append((*long)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			*long = append(*long, line...)
		}
		line = *long
	}
	if err == io.EOF && len(line) > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// parseRetryAfter reads a delay-seconds Retry-After value ("1", "2");
// HTTP-date forms are ignored (treated as no hint).
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}
