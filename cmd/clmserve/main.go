// Command clmserve is the streaming detection daemon: it serves
// NDJSON-over-HTTP scoring with session-aware aggregation (see
// internal/stream) over one of the paper's detection methods, cold-started
// from a versioned scorer bundle (-bundle dir, built by clmtrain -bundle;
// see internal/core). No baseline corpus is read and no tuning runs at
// startup — the bundle carries the backbone, tokenizer, and method head,
// its manifest names the method, and the daemon is ready as soon as they
// deserialize.
//
// Usage:
//
//	clmserve -bundle bundle/ -addr :8080 \
//	         -context 3 -aggregation decay -session-threshold 0.8
//
// Endpoints:
//
//	POST /score   body: NDJSON events {"user":..,"time":..,"line":..}
//	              (corpus JSONL records work verbatim; extra fields are
//	              ignored, a missing time defaults to arrival time).
//	              response: NDJSON verdicts, one per event, in order.
//	              503 until the scorer is ready.
//	GET  /stats   JSON snapshot of detector + queue counters, aggregated
//	              and per shard (queue depth, LRU hit rate, active scorer
//	              bundle version; with -cascade, the per-rung traffic
//	              split: cleared / triaged / escalated).
//	GET  /healthz liveness: 200 from the moment the socket is open, even
//	              while the bundle is still loading.
//	GET  /readyz  readiness: 503 until the scorer is serving — the probe
//	              load balancers should route on.
//	POST /reload  hot-swap the scorer from ?bundle=dir (default: the
//	              active bundle directory — the -bundle flag, or the
//	              directory of the last successful reload). The swap is
//	              atomic between scoring batches across every shard;
//	              nothing is dropped and no batch mixes scorers. SIGHUP
//	              triggers the same reload of the active bundle directory.
//
// The detector is sharded across -shards (default GOMAXPROCS) partitions
// keyed by hash(user): each shard owns its sessions, its bounded queue,
// its coalescing worker, and a scorer replica sharing the frozen backbone
// weights, so shards score concurrently while per-user event order — and
// every verdict — stays identical to the unsharded detector. When a
// shard's worker falls behind, -overload decides what /score does: block
// (HTTP-level backpressure through TCP, the default), shed (429 +
// Retry-After), or degrade (keep accepting and downshift saturated shards
// down the precision ladder, recovering on calm — see internal/stream).
// A malformed NDJSON line yields a per-line error record in the response
// stream; the connection and every well-formed line keep scoring.
//
// With -checkpoint the daemon periodically snapshots every per-user
// session window to the named file (atomic rename), restores it at
// startup, and writes a final snapshot after draining — a restart resumes
// mid-chain sessions and trips the same alarms an uninterrupted run would.
// On SIGINT/SIGTERM the daemon stops accepting requests, drains every
// queued event on every shard through the detector, checkpoints, and
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/* on the -pprof debug listener only
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"clmids/internal/core"
	"clmids/internal/fleet"
	"clmids/internal/modality"
	"clmids/internal/model"
	"clmids/internal/serve"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clmserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clmserve", flag.ContinueOnError)
	bundleDir := fs.String("bundle", "", "scorer bundle directory built by clmtrain -bundle (required; with -router, optional: the default rolling-reload source); the initial /reload and SIGHUP source (rebound by an explicit /reload?bundle=dir)")
	addr := fs.String("addr", ":8080", "listen address")
	contextN := fs.Int("context", 1, "session lines joined per scoring input (§IV-C)")
	aggregation := fs.String("aggregation", "decay", "session aggregation: max | mean | decay")
	lineThr := fs.Float64("line-threshold", 0, "per-line alert threshold (0 disables)")
	sessThr := fs.Float64("session-threshold", 0, "session alert threshold (0 disables)")
	idle := fs.Int64("idle-timeout", 1800, "session idle timeout in seconds")
	maxLines := fs.Int("max-session-lines", 64, "sliding window length per session")
	queue := fs.Int("queue", 64, "bounded ingest queue per shard (requests); full queue blocks /score")
	batch := fs.Int("batch", 512, "events coalesced per scoring batch per shard")
	overload := fs.String("overload", "block", "full-queue policy: block (backpressure) | shed (429 + Retry-After) | degrade (downshift saturated shards down the precision ladder, recover on calm)")
	degradeAfter := fs.Duration("degrade-after", 2*time.Second, "sustained saturation before the degrade policy downshifts a shard one precision rung")
	recoverAfter := fs.Duration("recover-after", 15*time.Second, "sustained calm before a degraded shard shifts one rung back up")
	checkpoint := fs.String("checkpoint", "", "session checkpoint file: restored at startup, rewritten every -checkpoint-interval and after draining (empty disables)")
	ckptInterval := fs.Duration("checkpoint-interval", time.Minute, "how often to rewrite the session checkpoint")
	shards := fs.Int("shards", 0, "detector shards keyed by hash(user) (0 = GOMAXPROCS); each shard scores concurrently on its own scorer replica")
	modalityPin := fs.String("modality", "", "pin the served log modality ("+modality.FlagHelp()+"): the startup bundle and every reload must match, or they are rejected; empty adopts the startup bundle's modality")
	precision := fs.String("precision", "", "serve-path precision: float64 | float32 | int8 (the bundle manifest decides unless this overrides; applies at startup, reloads follow their bundle's manifest)")
	cascade := fs.Bool("cascade", false, "serve the scoring cascade: rarity pre-filter -> int8 triage -> f64 confirm (the bundle must carry a cascade section, see clmtrain -cascade); per-rung traffic shows in /stats")
	pprofAddr := fs.String("pprof", "", "expose net/http/pprof on this extra debug listener (e.g. 127.0.0.1:6060); scoring, liveness, and readiness stay on -addr")
	drainTimeout := fs.Duration("drain-timeout", 0, "bound the SIGTERM/SIGINT drain: after this long a wedged shard is abandoned and the final checkpoint covers what drained (0 waits forever)")
	router := fs.Bool("router", false, "run as a fleet router over -replicas instead of serving a scorer: consistent-hash user -> replica, health-probed ejection/readmission, retry/backoff, session failover, rolling /reload")
	replicasFlag := fs.String("replicas", "", "comma-separated replica base URLs for -router mode (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "router health-probe period per replica")
	requestTimeout := fs.Duration("request-timeout", 15*time.Second, "router per-request timeout for proxied score/export/import calls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *router {
		// Router mode: no scorer — just the fleet tier. The -bundle flag
		// doubles as the default rolling-reload source.
		return runRouter(*addr, *replicasFlag, *bundleDir, *batch, *probeInterval, *requestTimeout)
	}
	if *shards <= 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	overloadPolicy, err := stream.ParseOverloadPolicy(*overload)
	if err != nil {
		return err
	}
	// "" means follow the bundle manifest; validate an explicit value
	// before any loading happens.
	var prec model.Precision
	if *precision != "" {
		var err error
		if prec, err = model.ParsePrecision(*precision); err != nil {
			return err
		}
	}
	if *cascade && *precision != "" {
		// The cascade pins its own rungs (int8 triage, f64 confirm); a
		// flat-precision override contradicts it.
		return errors.New("-cascade and -precision are mutually exclusive: the cascade serves int8 triage with float64 confirm")
	}

	agg, err := stream.ParseAggregation(*aggregation)
	if err != nil {
		return err
	}
	// Fail a typoed modality in milliseconds, not after loading the bundle;
	// the error lists the registered names.
	if *modalityPin != "" {
		if err := modality.Validate(*modalityPin); err != nil {
			return err
		}
	}
	if *bundleDir == "" {
		return errors.New("-bundle is required: build a scorer bundle with clmtrain -bundle dir")
	}

	scfg := stream.DefaultConfig()
	scfg.ContextWindow = *contextN
	scfg.Aggregation = agg
	scfg.LineThreshold = *lineThr
	scfg.SessionThreshold = *sessThr
	scfg.IdleTimeout = *idle
	scfg.MaxSessionLines = *maxLines

	// The socket opens before the scorer exists: /healthz answers 200
	// immediately (liveness) while /readyz and /score answer 503 until the
	// bundle load below finishes, so restart supervisors see a live process
	// and load balancers see a not-yet-ready replica instead of a black
	// hole while the bundle deserializes.
	d := serve.NewDaemon(*bundleDir, *cascade)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: serve.NewHandler(d, *batch)}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "clmserve: listening on %s (not ready yet)\n", ln.Addr())

	// Optional pprof debug listener, separate from the serving socket so
	// profiling the hot path never contends with liveness/readiness or
	// scoring routes. The net/http/pprof import registers its handlers on
	// the DefaultServeMux, which only this listener serves.
	if *pprofAddr != "" {
		dln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			server.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		go func() {
			if err := http.Serve(dln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "clmserve: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "clmserve: pprof debug listener on http://%s/debug/pprof/\n", dln.Addr())
	}

	// Register signals before the bundle load: SIGHUP's default
	// disposition kills the process, so an early reload request must be
	// queued for the serving loop below, not terminate a loading replica.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)

	lb, err := core.LoadScorerBundle(*bundleDir)
	if err != nil {
		server.Close()
		return err
	}
	if *modalityPin != "" {
		// The pin wins over the artifact: a bundle trained for another
		// modality is rejected before it ever scores a line.
		if err := lb.CheckModality(*modalityPin); err != nil {
			server.Close()
			return err
		}
	}
	var scorer tuning.Scorer = lb.Scorer
	method, version, served := lb.Manifest.Method, lb.Manifest.Version, lb.Modality()
	fmt.Fprintf(os.Stderr, "clmserve: loaded %s bundle %s (modality %s, no tuning)\n", method, version, served)
	if *cascade {
		if scorer, err = core.BuildCascade(lb.Scorer, lb.Cascade); err != nil {
			server.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "clmserve: serving the scoring cascade (clear<=%.3g, escalate>=%.4g)\n",
			lb.Cascade.Params.ClearThreshold, lb.Cascade.Params.EscalateLow)
	}
	if *precision != "" {
		// Startup override: rebind the serving engine before any replica
		// exists; the head and backbone are untouched.
		if err := tuning.SetScorerPrecision(scorer, prec); err != nil {
			server.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "clmserve: serving at %s precision\n", prec)
	}

	// One scorer replica per shard: the frozen backbone and fitted
	// artifacts are shared, only engine scratch + LRU cache replicate.
	replicas, err := core.ReplicateScorer(scorer, *shards)
	if err != nil {
		server.Close()
		return err
	}
	sharded, err := stream.NewShardedDetector(replicas, scfg)
	if err != nil {
		server.Close()
		return err
	}
	sharded.SetScorerVersion(version)
	sharded.SetModality(served)
	svc := stream.NewShardedService(sharded, stream.ServiceConfig{
		QueueRequests: *queue,
		BatchEvents:   *batch,
		Overload:      overloadPolicy,
		DegradeAfter:  *degradeAfter,
		RecoverAfter:  *recoverAfter,
	})

	// Restore the previous run's sessions before any traffic: a missing
	// checkpoint is a cold start, a corrupt or incompatible one is logged
	// and skipped (serving fresh beats not serving).
	if *checkpoint != "" {
		if f, err := os.Open(*checkpoint); err == nil {
			rerr := svc.RestoreSessions(f)
			f.Close()
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "clmserve: checkpoint %s not restored (%v); starting fresh\n", *checkpoint, rerr)
			} else {
				fmt.Fprintf(os.Stderr, "clmserve: restored %d sessions from %s\n",
					svc.Stats().ActiveSessions, *checkpoint)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "clmserve: checkpoint %s unreadable (%v); starting fresh\n", *checkpoint, err)
		}
	}
	d.Attach(svc, served)

	// Periodic idle-session sweep bounds memory across a large user
	// population. It runs on the stream's high-water event time, not wall
	// clock: on live traffic the two track each other, while replayed or
	// backfilled logs (historical timestamps) keep their sessions instead
	// of being evicted against the real clock.
	sweep := time.NewTicker(time.Minute)
	defer sweep.Stop()
	go func() {
		for range sweep.C {
			// Wall clock caps the sweep horizon: one far-future timestamp
			// (e.g. milliseconds sent as seconds) must not poison the
			// high-water mark into evicting every live session. The sweep
			// fans out across every shard.
			hw := svc.HighWater()
			if now := time.Now().Unix(); hw > now {
				hw = now
			}
			svc.EvictIdle(hw)
		}
	}()

	// Periodic session checkpoint: atomic (tmp + rename), so a crash
	// mid-write leaves the previous snapshot intact.
	if *checkpoint != "" {
		ckptTick := time.NewTicker(*ckptInterval)
		defer ckptTick.Stop()
		go func() {
			for range ckptTick.C {
				if err := serve.WriteCheckpointFile(svc, *checkpoint); err != nil {
					fmt.Fprintf(os.Stderr, "clmserve: checkpoint: %v\n", err)
				}
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "clmserve: %s scorer serving %s logs on %s (%d shards, overload=%s)\n",
		method, served, ln.Addr(), *shards, overloadPolicy)

	for {
		select {
		case err := <-errc:
			svc.Close()
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Hot-reload the active bundle directory (the -bundle flag,
				// or the last successful /reload source); serving continues
				// throughout, a failed reload keeps the old scorer.
				if v, err := d.Reload(""); err != nil {
					fmt.Fprintf(os.Stderr, "clmserve: SIGHUP reload failed: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "clmserve: SIGHUP reloaded bundle %s\n", v)
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "clmserve: %v: draining...\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := server.Shutdown(ctx); err != nil {
				// A never-ending streaming /score client keeps its handler
				// active past the deadline; force-close it — the drain below
				// still answers everything the queue accepted.
				fmt.Fprintf(os.Stderr, "clmserve: forced shutdown: %v\n", err)
				server.Close()
			}
			// Drain queued requests through the detector, bounded by
			// -drain-timeout: a wedged shard must not hang shutdown forever.
			// On expiry the abandoned shard's queue is lost, but everything
			// that did drain is in the final checkpoint below.
			if !svc.CloseTimeout(*drainTimeout) {
				fmt.Fprintf(os.Stderr, "clmserve: drain exceeded %s; abandoning wedged shards and checkpointing what drained\n", *drainTimeout)
			}
			if *checkpoint != "" {
				// Checkpoint after the drain: every accepted event is in the
				// snapshot, so the next start resumes exactly here.
				if err := serve.WriteCheckpointFile(svc, *checkpoint); err != nil {
					fmt.Fprintf(os.Stderr, "clmserve: final checkpoint: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "clmserve: checkpointed sessions to %s\n", *checkpoint)
				}
			}
			st := svc.Stats()
			fmt.Fprintf(os.Stderr, "clmserve: drained; %d events scored, %d session alerts\n",
				st.Events, st.SessionAlerts)
			return nil
		}
	}
}

// runRouter is -router mode: no scorer — the process becomes the fleet
// tier (internal/fleet) over the given replicas, serving the same NDJSON
// /score protocol with health-probed ejection/readmission, retry/backoff,
// session failover, and rolling zero-drop /reload (also on SIGHUP).
// bundleDir is the default rolling-reload source.
func runRouter(addr, replicaList, bundleDir string, chunk int, probeInterval, requestTimeout time.Duration) error {
	var addrs []string
	for _, a := range strings.Split(replicaList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return errors.New("-router requires -replicas=url1,url2,...")
	}
	rt, err := fleet.New(fleet.Config{
		Replicas:       addrs,
		ProbeInterval:  probeInterval,
		RequestTimeout: requestTimeout,
		Chunk:          chunk,
		BundleDir:      bundleDir,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "clmserve: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)

	rt.Start()
	defer rt.Stop()
	fmt.Fprintf(os.Stderr, "clmserve: fleet router on %s over %d replicas\n", ln.Addr(), len(addrs))

	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Rolling reload of the active bundle across the fleet, one
				// replica out of rotation at a time.
				go func() {
					done, err := rt.RollingReload(context.Background(), "")
					if err != nil {
						fmt.Fprintf(os.Stderr, "clmserve: SIGHUP rolling reload failed: %v (%d replicas reloaded)\n", err, len(done))
						return
					}
					fmt.Fprintf(os.Stderr, "clmserve: SIGHUP rolling reload done (%d replicas)\n", len(done))
				}()
				continue
			}
			fmt.Fprintf(os.Stderr, "clmserve: %v: router shutting down\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := server.Shutdown(ctx); err != nil {
				server.Close()
			}
			return nil
		}
	}
}
