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
type Config struct {
	// Replicas are the downstream clmserve base URLs
	// (e.g. http://127.0.0.1:8081). At least one is required; membership is
	// fixed for the router's lifetime (health decides rotation, not
	// membership).
	Replicas []string
	// ProbeInterval is the health-probe period per replica, and the bound
	// on each probe request (default 500ms).
	ProbeInterval time.Duration
	// RequestTimeout bounds each proxied /score, export, and import call
	// (default 15s).
	RequestTimeout time.Duration
	// RetryMax is the attempt budget per target for retryable failures
	// (429/5xx) before giving up on it; RetryBase/RetryCap shape the capped
	// exponential backoff between attempts (jittered; Retry-After from a
	// 429 overrides when longer). Defaults 4, 50ms, 2s.
	RetryMax  int
	RetryBase time.Duration
	RetryCap  time.Duration
	// Chunk caps events per proxied Submit (default 512).
	Chunk int
	// BundleDir is the default rolling-reload source (empty: /reload
	// requires ?bundle=dir).
	BundleDir string
	// ReloadWait bounds, per replica, the waits inside a rolling reload:
	// for the rest of the fleet to be healthy, for the drained replica to
	// go idle, and for /readyz after the reload. Default 30s.
	ReloadWait time.Duration
	// Client is the HTTP client for all downstream calls (default: a
	// dedicated client with no global timeout — per-call contexts bound
	// every request).
	Client *http.Client
	// Seed seeds backoff jitter and fixes it for reproducible tests
	// (default 1).
	Seed int64
	// Logf receives operational events (ejections, readmissions, failovers,
	// reloads). Default: discard.
	Logf func(format string, args ...any)
}

// ejectAfter is the consecutive probe failures that eject a replica from
// the ring; readmitAfter the consecutive successes that readmit it.
// Data-path transport failures eject immediately — the probe thresholds
// only smooth flapping.
const ejectAfter, readmitAfter = 2, 2

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	if c.Chunk <= 0 {
		c.Chunk = 512
	}
	if c.ReloadWait <= 0 {
		c.ReloadWait = 30 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Seed == 0 {
		c.Seed = 1
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
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stop:    make(chan struct{}),
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

// probeOnce checks /readyz and, on the edge back to healthy, re-verifies
// the replica's session config and modality off /stats before readmitting:
// a replica whose semantics drifted from the fleet's never rejoins the
// ring, because mirrored shadow windows and migrated checkpoints would
// silently mis-score there.
func (rt *Router) probeOnce(rep *replica) {
	ok := rt.checkReady(rep)
	if ok {
		rt.mu.Lock()
		verified := rep.cfgOK
		rt.mu.Unlock()
		if !verified {
			ok = rt.verifyConfig(rep)
		}
	}
	rt.noteProbe(rep, ok)
}

func (rt *Router) checkReady(rep *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.addr+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// verifyConfig fetches /stats and checks the replica's session config and
// modality against the fleet's. The first verified replica donates the
// fleet-wide reference.
func (rt *Router) verifyConfig(rep *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.addr+"/stats", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var st struct {
		Config   stream.Config `json:"config"`
		Modality string        `json:"modality"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
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

// noteProbe advances the ejection/readmission state machine: ejectAfter
// consecutive failures take a replica out of the ring, readmitAfter
// consecutive successes put it back.
func (rt *Router) noteProbe(rep *replica, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ok {
		rep.consecFails = 0
		rep.consecOKs++
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

// work is a set of events (with their positions in the originating chunk)
// still awaiting verdicts.
type work struct {
	evs []stream.Event
	pos []int
}

// Route scores one chunk of events across the fleet: partition by ring,
// deliver each group with migration/retry, fail surviving events
// over to successors as replicas fall out, and return verdicts in input
// order. An error means some events were definitively not scored (none
// are silently dropped: the caller sees either a full verdict set or an
// error).
func (rt *Router) Route(ctx context.Context, events []stream.Event) ([]stream.Verdict, error) {
	if len(events) == 0 {
		return nil, nil
	}
	rt.events.Add(int64(len(events)))
	out := make([]stream.Verdict, len(events))
	pos := make([]int, len(events))
	for i := range pos {
		pos[i] = i
	}
	pending := []work{{evs: events, pos: pos}}
	var firstErr error
	// Each depth re-partitions over the current (post-ejection) ring, so
	// the loop terminates once every replica has had its chance.
	for depth := 0; len(pending) > 0; depth++ {
		if depth > len(rt.reps) {
			if firstErr == nil {
				firstErr = errUnroutable
			}
			return nil, fmt.Errorf("fleet: giving up after %d failovers: %w", depth-1, firstErr)
		}
		groups := rt.partition(pending)
		if groups == nil {
			if firstErr != nil {
				return nil, fmt.Errorf("%w (last error: %v)", ErrNoReplicas, firstErr)
			}
			return nil, ErrNoReplicas
		}
		if depth > 0 {
			rt.failovers.Add(1)
		}
		var (
			wg     sync.WaitGroup
			resMu  sync.Mutex
			failed []work
		)
		for addr, g := range groups {
			wg.Add(1)
			go func(addr string, g work) {
				defer wg.Done()
				rem, err := rt.deliverGroup(ctx, addr, g, out)
				resMu.Lock()
				if len(rem.evs) > 0 {
					failed = append(failed, rem)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				resMu.Unlock()
			}(addr, g)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A terminal error (overload budget exhausted, unparsable echo)
		// stops the chunk: retrying elsewhere cannot help.
		if firstErr != nil && !errors.Is(firstErr, errFailover) {
			return nil, firstErr
		}
		firstErr = nil
		pending = failed
	}
	return out, nil
}

// errFailover wraps group failures that should re-route to a successor
// rather than abort the chunk.
var errFailover = errors.New("fleet: failover")

// partition splits pending work by the current ring owner of each event's
// user, preserving per-user event order. nil when the ring is empty.
func (rt *Router) partition(pending []work) map[string]work {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ring.Empty() || !rt.sessCfgKnown {
		return nil
	}
	groups := make(map[string]work)
	for _, w := range pending {
		for i, ev := range w.evs {
			addr := rt.ring.Lookup(ev.User)
			g := groups[addr]
			g.evs = append(g.evs, ev)
			g.pos = append(g.pos, w.pos[i])
			groups[addr] = g
		}
	}
	return groups
}

// deliverGroup sends one replica's share of a chunk: migrate any users
// whose windows live elsewhere, then score with retry/backoff.
// Verdicts received are committed — they scatter into out and fold into
// the shadows immediately, so a mid-group failure re-routes only the
// unanswered suffix. Returns the remaining (unscored) work; err wraps
// errFailover when the caller should re-route it.
func (rt *Router) deliverGroup(ctx context.Context, addr string, g work, out []stream.Verdict) (work, error) {
	rep := rt.byAddr[addr]
	if rep == nil {
		return g, errFailover
	}
	if err := rt.migrate(ctx, rep, groupUsers(g.evs)); err != nil {
		rt.eject(rep, fmt.Sprintf("session import failed: %v", err))
		return g, fmt.Errorf("%w: %v", errFailover, err)
	}
	backoff := rt.cfg.RetryBase
	lastClass := classInternal
	for attempt := 0; attempt < rt.cfg.RetryMax; attempt++ {
		if attempt > 0 {
			rt.retries.Add(1)
		}
		verdicts, class, retryAfter, err := rt.scoreOnce(ctx, rep, g.evs)
		if len(verdicts) > 0 {
			rt.applyVerdicts(addr, verdicts)
			for i, v := range verdicts {
				out[g.pos[i]] = v
			}
			g = work{evs: g.evs[len(verdicts):], pos: g.pos[len(verdicts):]}
		}
		if len(g.evs) == 0 {
			return work{}, nil
		}
		lastClass = class
		switch class {
		case classTransport, classNotReady:
			// The connection tore or the replica bounced mid-stream: events
			// past the last verdict may be half-ingested with no verdict to
			// show. Eject — its window state is superseded by the shadows —
			// and fail the remainder over.
			rt.eject(rep, fmt.Sprintf("score failed: %v", err))
			return g, fmt.Errorf("%w: %v", errFailover, err)
		case classOverloaded:
			// Shed is pre-ingestion by contract, so the same target retries
			// safely; honor Retry-After when it outlasts our own backoff.
			if !rt.sleepBackoff(ctx, &backoff, retryAfter) {
				return g, ctx.Err()
			}
		case classInternal:
			// The batch rolled back server-side (Process aborts atomically);
			// retry the same target after backoff.
			if !rt.sleepBackoff(ctx, &backoff, 0) {
				return g, ctx.Err()
			}
		case classUnparsable:
			// The replica rejected router-marshaled JSON: a protocol bug,
			// not a fleet-health problem. Abort the chunk loudly.
			return g, fmt.Errorf("fleet: replica %s rejected router event encoding: %v", addr, err)
		}
		// If a probe ejected the replica while we backed off, re-route now.
		rt.mu.Lock()
		alive := rep.ready && !rep.draining
		rt.mu.Unlock()
		if !alive {
			return g, fmt.Errorf("%w: %s left rotation during retries", errFailover, addr)
		}
	}
	// Retry budget exhausted. Persistent overload surfaces to the client
	// as a shed (ErrOverloaded → 429/in-band record: nothing was ingested,
	// the client retries) — dumping the load on a neighbor would just
	// cascade it. Persistent internal errors mark the replica sick:
	// eject it and fail the remainder over.
	if lastClass == classOverloaded {
		return g, fmt.Errorf("fleet: replica %s still overloaded after %d attempts: %w",
			addr, rt.cfg.RetryMax, stream.ErrOverloaded)
	}
	rt.eject(rep, "retry budget exhausted")
	return g, fmt.Errorf("%w: %s retry budget exhausted", errFailover, addr)
}

// groupUsers returns the distinct users in evs, order-preserving.
func groupUsers(evs []stream.Event) []string {
	seen := make(map[string]bool, len(evs))
	users := make([]string, 0, len(evs))
	for _, ev := range evs {
		if !seen[ev.User] {
			seen[ev.User] = true
			users = append(users, ev.User)
		}
	}
	return users
}

// sleepBackoff sleeps the jittered capped-exponential delay (or
// retryAfter when longer), returning false if ctx expired first.
func (rt *Router) sleepBackoff(ctx context.Context, backoff *time.Duration, retryAfter time.Duration) bool {
	d := *backoff
	*backoff *= 2
	if *backoff > rt.cfg.RetryCap {
		*backoff = rt.cfg.RetryCap
	}
	rt.rngMu.Lock()
	jittered := d/2 + time.Duration(rt.rng.Int63n(int64(d/2)+1))
	rt.rngMu.Unlock()
	if retryAfter > jittered {
		jittered = retryAfter
	}
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ---- session migration ----

// migrate lands the windows of any listed users whose sessions live on a
// different replica onto target before their events are scored there —
// the import-before-route rule that keeps an attack chain intact across
// failovers and ring moves. The source of truth is the old owner's live
// export when it is reachable (a drain), and the router's shadow windows
// when it is not (a crash).
func (rt *Router) migrate(ctx context.Context, target *replica, users []string) error {
	rt.mu.Lock()
	movers := make(map[string][]string)
	for _, u := range users {
		if o := rt.owners[u]; o != "" && o != target.addr {
			movers[o] = append(movers[o], u)
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
		reachable := old != nil && old.ready
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
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()
	// One users= parameter per user: a name may hold any byte, a comma too.
	u := rep.addr + "/sessions/export?" + url.Values{"users": users}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("export from %s: HTTP %d", rep.addr, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		// A torn export body would fail the import checksum anyway; fail
		// fast here and let the caller fall back to shadows.
		return nil, err
	}
	return &buf, nil
}

// importTo lands a checkpoint on target's /sessions/import.
func (rt *Router) importTo(ctx context.Context, rep *replica, buf *bytes.Buffer) error {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+"/sessions/import", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("import to %s: HTTP %d: %s", rep.addr, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// ---- scoring ----

// Error classes for one proxied /score exchange.
const (
	classOK = iota
	classTransport
	classOverloaded
	classNotReady
	classInternal
	classUnparsable
)

// scoreOnce performs one NDJSON /score exchange. Verdicts returned are
// committed on the replica even when err != nil (a torn stream yields the
// committed prefix plus a transport class for the rest).
func (rt *Router) scoreOnce(ctx context.Context, rep *replica, evs []stream.Event) ([]stream.Verdict, int, time.Duration, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()

	// Not pooled: the transport may still read a request body after Do
	// returns, so its bytes must outlive this call. Sized for unescaped
	// strings and the widest time.
	const fixed = len(`{"user":"","time":,"line":""}`+"\n") + len("-9223372036854775808")
	size := 0
	for i := range evs {
		size += len(evs[i].User) + len(evs[i].Line) + fixed
	}
	body := make([]byte, 0, size)
	for i := range evs {
		body = serve.AppendEvent(body, &evs[i])
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
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, classOverloaded, parseRetryAfter(resp.Header.Get("Retry-After")), fmt.Errorf("replica %s overloaded", rep.addr)
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, classNotReady, 0, fmt.Errorf("replica %s not ready", rep.addr)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, classInternal, 0, fmt.Errorf("replica %s: HTTP %d", rep.addr, resp.StatusCode)
	}

	verdicts := make([]stream.Verdict, 0, len(evs))
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
			return verdicts, classTransport, 0, fmt.Errorf("replica %s: response stream: %v", rep.addr, err)
		}
		if len(line) == 0 {
			continue
		}
		var v stream.Verdict
		if !serve.DecodeVerdict(line, &v) {
			// Error records, and any line not in the canonical verdict shape.
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
				return verdicts, class, 0, fmt.Errorf("replica %s: %s", rep.addr, probe.Error)
			}
			if err := json.Unmarshal(line, &v); err != nil {
				return verdicts, classTransport, 0, fmt.Errorf("replica %s: bad verdict line: %v", rep.addr, err)
			}
		}
		if len(verdicts) == len(evs) {
			return verdicts, classTransport, 0, fmt.Errorf("replica %s: more verdicts than events", rep.addr)
		}
		verdicts = append(verdicts, v)
	}
	if len(verdicts) < len(evs) {
		// Torn mid-response: the prefix committed, the suffix is unknown.
		return verdicts, classTransport, 0, fmt.Errorf("replica %s: response truncated at %d/%d verdicts", rep.addr, len(verdicts), len(evs))
	}
	return verdicts, classOK, 0, nil
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
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}
