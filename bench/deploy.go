package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"clmids/internal/core"
	"clmids/internal/fleet"
	"clmids/internal/model"
	"clmids/internal/serve"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// deployment is a workload's serving stack on loopback listeners, built
// from the calls cmd/clmserve makes with its default flags. With a
// recorder, the same stack gets timing wrappers at every layer boundary.
type deployment struct {
	url       string
	servers   []*http.Server
	svcs      []*stream.Service
	router    *fleet.Router
	transport *http.Transport // the router's downstream transport
	loads     []time.Duration // LoadScorerBundle, per replica
	readyWait time.Duration   // the router's wait for its probes to admit the replicas
}

// deploy builds w's deployment and returns once its /score answers.
func deploy(w workload, bundle string, rec *recorder) (*deployment, error) {
	d := &deployment{}
	if !w.fleet {
		url, err := d.replica(w, bundle, 0, rec)
		if err != nil {
			d.close()
			return nil, err
		}
		d.url = url
		return d, nil
	}
	// The ring places users by hashing replica addresses, so loopback's
	// random ports would redraw the user split on every run. The router is
	// given fixed addresses instead, a pair whose ring puts 20 of the
	// corpus's 40 users on each replica, and its transport, a copy of the
	// default client's, dials the real listeners behind them.
	addrs := []string{"http://127.0.0.1:8003", "http://127.0.0.1:8004"}
	listeners := map[string]string{}
	repOf := map[string]int{}
	for rep, addr := range addrs {
		url, err := d.replica(w, bundle, rep, rec)
		if err != nil {
			d.close()
			return nil, err
		}
		listeners[addr[len("http://"):]] = url[len("http://"):]
		repOf[addr[len("http://"):]] = rep
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := listeners[addr]; ok {
			addr = real
		}
		return dial(ctx, network, addr)
	}
	d.transport = tr
	// clmserve -router's defaults; the traced stack only adds a timing
	// RoundTripper.
	cfg := fleet.Config{
		Replicas:       addrs,
		ProbeInterval:  500 * time.Millisecond,
		RequestTimeout: 15 * time.Second,
		Chunk:          chunk,
		BundleDir:      bundle,
		Client:         &http.Client{Transport: tr},
	}
	if rec != nil {
		cfg.Client = &http.Client{Transport: &timedTransport{rec: rec, base: tr, repOf: repOf}}
	}
	rt, err := fleet.New(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.router = rt
	handler := rt.Handler()
	if rec != nil {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/score", rec.tracedScore(-1, rt.Ready, rt.Route, "fleet"))
		handler = mux
	}
	url, err := d.listen(handler)
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = url
	start := time.Now()
	rt.Start()
	// Readmission takes two passing probes, so this spans one probe period.
	for deadline := start.Add(10 * time.Second); !rt.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			d.close()
			return nil, errors.New("fleet router never became ready")
		}
	}
	d.readyWait = time.Since(start)
	return d, nil
}

func (d *deployment) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	d.servers = append(d.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// replica is clmserve -bundle with default flags (plus -cascade when the
// workload asks): load, replicate across GOMAXPROCS shards, serve.
func (d *deployment) replica(w workload, bundle string, rep int, rec *recorder) (string, error) {
	dm := serve.NewDaemon(bundle, w.cascade)
	handler := serve.NewHandler(dm, chunk)
	if rec != nil {
		ready := func() bool { _, ok := dm.Service(); return ok }
		submit := func(ctx context.Context, events []stream.Event) ([]stream.Verdict, error) {
			svc, _ := dm.Service()
			return svc.SubmitContext(ctx, events)
		}
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/score", rec.tracedScore(rep, ready, submit, "stream"))
		handler = mux
	}
	url, err := d.listen(handler)
	if err != nil {
		return "", err
	}
	start := time.Now()
	lb, err := core.LoadScorerBundle(bundle)
	if err != nil {
		return "", err
	}
	d.loads = append(d.loads, time.Since(start))
	scorers, err := shardScorers(lb, w.cascade, runtime.GOMAXPROCS(0), rec, rep)
	if err != nil {
		return "", err
	}
	sharded, err := stream.NewShardedDetector(scorers, stream.DefaultConfig())
	if err != nil {
		return "", err
	}
	sharded.SetScorerVersion(lb.Manifest.Version)
	sharded.SetModality(lb.Modality())
	svc := stream.NewShardedService(sharded, stream.ServiceConfig{
		QueueRequests: 64,
		BatchEvents:   chunk,
		Overload:      stream.OverloadBlock,
		DegradeAfter:  2 * time.Second,
		RecoverAfter:  15 * time.Second,
	})
	d.svcs = append(d.svcs, svc)
	dm.Attach(svc, lb.Modality())
	return url, nil
}

// shardScorers returns one scorer per shard. Untraced, it is exactly
// clmserve's BuildCascade + ReplicateScorer. Traced, each shard's stack is
// assembled the same way by hand so every layer can be wrapped: BuildCascade
// derives the int8 triage rung from the f64 confirm scorer via AtPrecision,
// and a cascade replica replicates both rungs.
func shardScorers(lb *core.LoadedBundle, cascade bool, n int, rec *recorder, rep int) ([]tuning.Scorer, error) {
	if rec == nil {
		var sc tuning.Scorer = lb.Scorer
		if cascade {
			c, err := core.BuildCascade(lb.Scorer, lb.Cascade)
			if err != nil {
				return nil, err
			}
			sc = c
		}
		return core.ReplicateScorer(sc, n)
	}
	confirms, err := core.ReplicateScorer(lb.Scorer, n)
	if err != nil {
		return nil, err
	}
	out := make([]tuning.Scorer, n)
	for i, confirm := range confirms {
		ln := &lane{rep: rep, shard: i}
		sc := confirm
		if cascade {
			if lb.Cascade == nil {
				return nil, fmt.Errorf("bundle %s has no cascade section", lb.Manifest.Version)
			}
			triage, err := tuning.AtPrecision(confirm, model.PrecisionInt8)
			if err != nil {
				return nil, err
			}
			sc, err = tuning.NewCascadeScorer(lb.Cascade.Rarity,
				&timedScorer{inner: triage, rec: rec, name: "cascade.triage", lane: ln},
				&timedScorer{inner: confirm, rec: rec, name: "cascade.confirm", lane: ln},
				lb.Cascade.Params)
			if err != nil {
				return nil, err
			}
		}
		out[i] = &timedScorer{inner: sc, rec: rec, name: "tuning", lane: ln}
	}
	return out, nil
}

// close stops the stack: listeners and connections first, then the probe
// loops, then the shard workers.
func (d *deployment) close() {
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].Close()
	}
	if d.router != nil {
		d.router.Stop()
	}
	for _, svc := range d.svcs {
		svc.Close()
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
}

// counters is a snapshot of the program's own counters across the stack.
type counters struct {
	events, inputs                   int64
	hits, misses, encHits, encMisses int64
	cleared, triaged, escalated      int64
	retries, failovers               int64
	repEvents                        [2]int64 // events per replica
}

func (d *deployment) counters() counters {
	var c counters
	for rep, svc := range d.svcs {
		st := svc.Stats()
		c.events += st.Events
		c.repEvents[rep] = st.Events
		c.inputs += st.ScoredInputs
		for _, sh := range st.Shards {
			if sh.Cache != nil {
				c.hits += sh.Cache.Hits
				c.misses += sh.Cache.Misses
				c.encHits += sh.Cache.EncodedHits
				c.encMisses += sh.Cache.EncodedMisses
			}
		}
		if st.Cascade != nil {
			c.cleared += st.Cascade.Cleared
			c.triaged += st.Cascade.Triaged
			c.escalated += st.Cascade.Escalated
		}
	}
	if d.router != nil {
		st := d.router.Stats()
		c.retries, c.failovers = st.Retries, st.Failovers
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		events: c.events - o.events, inputs: c.inputs - o.inputs,
		hits: c.hits - o.hits, misses: c.misses - o.misses,
		encHits: c.encHits - o.encHits, encMisses: c.encMisses - o.encMisses,
		cleared: c.cleared - o.cleared, triaged: c.triaged - o.triaged, escalated: c.escalated - o.escalated,
		retries: c.retries - o.retries, failovers: c.failovers - o.failovers,
		repEvents: [2]int64{c.repEvents[0] - o.repEvents[0], c.repEvents[1] - o.repEvents[1]},
	}
}
