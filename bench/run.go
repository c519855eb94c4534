package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"clmids/internal/core"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

// runConfig is one workload run inside one process.
type runConfig struct {
	w        workload
	seed     int64
	bundle   string
	untraced time.Duration // timed phase on the production stack
	traced   time.Duration // phase on the wrapped stack; 0 skips it
	setups   int           // deployments built; setup_s is their median
	fill     int           // requests per client served before rss_mb is read and timing starts
	novelN   int           // events in the novel corpus
	traceDir string        // where <workload>.trace.json goes; "" skips it
}

// runResult is what a run reports to the parent process.
type runResult struct {
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Mismatches int                `json:"mismatches"`
	Metrics    map[string]float64 `json:"metrics"`
	Info       map[string]float64 `json:"info"`
}

type runner struct {
	cfg runConfig
	tr  *traffic
	res *runResult
	cls []*loadClient
	ref [][]stream.Verdict // reference verdicts of the warm-up, per request
}

// runWorkload measures one workload: set up the production stack several
// times (verifying each warm-up), fill the last one and read its memory,
// run the untraced timed phase on it, then optionally build the traced
// stack and run the traced phase.
func runWorkload(cfg runConfig) (*runResult, error) {
	tr, err := genTraffic(cfg.w, cfg.seed, cfg.novelN)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, tr: tr, res: &runResult{Metrics: map[string]float64{}, Info: map[string]float64{}}}
	defer r.closeClients()
	m, info := r.res.Metrics, r.res.Info
	bodies := 0
	for _, cs := range tr.streams {
		bodies += cs.bytes()
	}
	info["input.events"] = float64(tr.events)
	info["input.distinct_frac"] = float64(tr.distinct) / float64(tr.events)
	info["input.users"] = float64(tr.users)
	info["input.bodies_mb"] = float64(bodies) / (1 << 20)

	pr, err := newProber()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	var setups, rawSetups, loads []float64
	before, err := pr.speed()
	if err != nil {
		return nil, err
	}
	for k := 0; k < cfg.setups; k++ {
		if d != nil {
			d.close()
			r.closeClients()
		}
		runtime.GC()
		start := time.Now()
		if d, err = deploy(cfg.w, cfg.bundle, nil); err != nil {
			return nil, err
		}
		sent, got := r.warmup(d.url)
		took := time.Since(start).Seconds()
		after, err := pr.speed()
		if err != nil {
			return nil, err
		}
		// The fleet's wait for its probe period is a timer, which host
		// speed does not stretch.
		wait := d.readyWait.Seconds()
		setups = append(setups, (took-wait)*(before+after)/2+wait)
		rawSetups = append(rawSetups, took)
		before = after
		for _, l := range d.loads {
			loads = append(loads, l.Seconds())
		}
		if err := r.verify(sent, got); err != nil {
			return nil, err
		}
	}
	m["setup_s"] = quantile(setups, 0.5)
	info["raw.setup_s"] = quantile(rawSetups, 0.5)
	m["setup.load_s"] = quantile(loads, 0.5)

	// Memory is read at a fixed point in the traffic rather than a fixed
	// time, so it does not depend on how far a run got (on the novel
	// workloads it grows with every session the traffic opens), and after
	// two collections and a scavenge, so it does not depend on where the
	// collector was or on what sync.Pools held (the second collection
	// empties them).
	r.tally(run(r.cls, 0, cfg.fill, nil))
	runtime.GC()
	debug.FreeOSMemory()
	if m["rss_mb"], err = vmRSS(); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["go.heap_mb"] = float64(ms.HeapInuse) / (1 << 20)

	// The untraced phase: counters and allocations are deltas across it.
	c0 := d.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph, err := timedPhase(r.cls, cfg.untraced, pr, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	c := d.counters().sub(c0)
	d.close()
	d = nil
	r.closeClients()
	r.tally(ph)
	if ph.verdicts == 0 {
		return nil, fmt.Errorf("no verdicts in the timed phase (%d requests, %d failed)", ph.requests, ph.failed)
	}
	lines := float64(ph.verdicts)
	lat := millis(ph.refLat)
	m["lines_per_s"] = lines / ph.refWall.Seconds()
	m["verdict_p50_ms"] = quantile(lat, 0.5)
	m["client.verdict_p95_ms"] = quantile(lat, 0.95)
	info["latency.samples"] = float64(len(lat))
	info["host.speed"] = float64(ph.refWall) / float64(ph.wall)
	info["raw.lines_per_s"] = ph.linesPerSec()
	info["raw.verdict_p50_ms"] = quantile(millis(ph.lat), 0.5)
	if cfg.w.fleet {
		info["input.replica0_share"] = ratio(c.repEvents[0], c.events)
	}
	m["wire.bytes_in_per_line"] = float64(ph.in) / lines
	m["wire.bytes_out_per_line"] = float64(ph.out) / lines
	m["fleet.retries"] = float64(c.retries)
	m["fleet.failovers"] = float64(c.failovers)
	m["stream.inputs_per_line"] = ratio(c.inputs, c.events)
	m["tuning.cache_hit_rate"] = ratio(c.hits, c.hits+c.misses)
	m["tuning.encoded_hit_rate"] = ratio(c.encHits, c.encHits+c.encMisses)
	m["cascade.cleared_frac"] = ratio(c.cleared, c.cleared+c.triaged)
	m["cascade.escalated_frac"] = ratio(c.escalated, c.cleared+c.triaged)
	m["go.allocs_per_line"] = float64(m1.Mallocs-m0.Mallocs) / lines
	m["go.bytes_per_line"] = float64(m1.TotalAlloc-m0.TotalAlloc) / lines
	m["go.gc_per_mline"] = float64(m1.NumGC-m0.NumGC) / lines * 1e6
	m["cpu_us_per_line"] = float64(ph.cpu) / 1e3 / lines

	if cfg.traced > 0 {
		if err := r.traced(pr, m["lines_per_s"]); err != nil {
			return nil, err
		}
	}
	r.res.Correct = r.res.Mismatches == 0 && r.res.Failed == 0
	return r.res, nil
}

// traced runs the traced phase on a fresh wrapped stack and attributes its
// spans to layers. It is timed against the probe like the untraced phase,
// so the two compare in reference time.
func (r *runner) traced(pr *prober, untracedLPS float64) error {
	rec := newRecorder()
	d, err := deploy(r.cfg.w, r.cfg.bundle, rec)
	if err != nil {
		return err
	}
	sent, got := r.warmup(d.url)
	if err := r.verify(sent, got); err != nil {
		d.close()
		return err
	}
	runtime.GC()
	rec.on.Store(true)
	ph, err := timedPhase(r.cls, r.cfg.traced, pr, rec)
	rec.on.Store(false)
	if err != nil {
		d.close()
		return err
	}
	d.close()
	r.closeClients()
	r.tally(ph)
	if ph.verdicts == 0 {
		return fmt.Errorf("no verdicts in the traced phase (%d requests, %d failed)", ph.requests, ph.failed)
	}
	spans := rec.snapshot()
	if r.cfg.traceDir != "" {
		if err := writeTrace(filepath.Join(r.cfg.traceDir, r.cfg.w.name+".trace.json"), spans); err != nil {
			return err
		}
	}
	at := attribute(spans)
	m, info := r.res.Metrics, r.res.Info
	// Span times are converted to reference time at the phase's mean host
	// speed, so layer budgets of runs on a busy and a quiet host compare.
	speed := float64(ph.refWall) / float64(ph.wall)
	perLine := func(d time.Duration) float64 { return float64(d) * speed / 1e3 / float64(ph.verdicts) }
	for _, l := range []string{"client", "serve", "stream"} {
		m[l+".us_per_line"] = perLine(at.layer[l])
	}
	m["fleet.us_per_line"] = perLine(at.layer["fleet"])
	m["fleet.hop_us_per_line"] = perLine(at.layer["hop"])
	// tuning is the whole scorer subtree; on the cascade its own self time
	// is rung 0 and the two model rungs are its children.
	m["tuning.us_per_line"] = perLine(at.layer["tuning"] + at.layer["cascade.triage"] + at.layer["cascade.confirm"])
	m["cascade.rarity_us_per_line"] = 0
	if r.cfg.w.cascade {
		m["cascade.rarity_us_per_line"] = perLine(at.layer["tuning"])
	}
	m["cascade.triage_us_per_line"] = perLine(at.layer["cascade.triage"])
	m["cascade.confirm_us_per_line"] = perLine(at.layer["cascade.confirm"])
	m["tuning.busy_us_per_input"] = 0
	if at.inputs > 0 {
		m["tuning.busy_us_per_input"] = float64(at.busy) * speed / 1e3 / float64(at.inputs)
	}
	m["trace.overhead_frac"] = 1 - float64(ph.verdicts)/ph.refWall.Seconds()/untracedLPS
	var sum time.Duration
	for _, v := range at.layer {
		sum += v
	}
	info["trace.requests"] = float64(at.requests)
	info["trace.client_observed_us_per_line"] = perLine(at.total)
	info["trace.layer_sum_us_per_line"] = perLine(sum)
	return nil
}

func (r *runner) closeClients() {
	for _, c := range r.cls {
		c.close()
	}
	r.cls = nil
}

func (r *runner) tally(p phase) {
	r.res.Attempted += p.requests
	r.res.Failed += p.failed
}

// warmup points fresh clients at url, rewinds their streams and sends
// warmupRounds requests per client one at a time, returning copies of the
// request and response bodies.
func (r *runner) warmup(url string) (sent, got [][]byte) {
	r.closeClients()
	for i, cs := range r.tr.streams {
		cs.rewind()
		r.cls = append(r.cls, newLoadClient(i, cs, url))
	}
	for round := 0; round < warmupRounds; round++ {
		for _, c := range r.cls {
			ex := c.send(nil)
			r.res.Attempted++
			if !ex.ok {
				r.res.Failed++
			}
			sent = append(sent, bytes.Clone(c.cs.body))
			got = append(got, bytes.Clone(c.resp.Bytes()))
		}
	}
	return sent, got
}

// verify compares the warm-up's verdicts field by field with a
// single-shard Detector over a separately loaded scorer fed the same
// requests in the same order. The reference is computed once per run.
func (r *runner) verify(sent, got [][]byte) error {
	if r.ref == nil {
		lb, err := core.LoadScorerBundle(r.cfg.bundle)
		if err != nil {
			return err
		}
		var sc tuning.Scorer = lb.Scorer
		if r.cfg.w.cascade {
			if sc, err = core.BuildCascade(lb.Scorer, lb.Cascade); err != nil {
				return err
			}
		}
		det := stream.NewDetector(sc, stream.DefaultConfig())
		for _, body := range sent {
			events, err := decodeLines[stream.Event](body)
			if err != nil {
				return fmt.Errorf("decoding a request body: %w", err)
			}
			v, err := det.Process(events)
			if err != nil {
				return fmt.Errorf("reference detector: %w", err)
			}
			r.ref = append(r.ref, v)
		}
	}
	for k, body := range got {
		vs, err := decodeLines[stream.Verdict](body)
		want := r.ref[k]
		if err != nil || len(vs) != len(want) {
			r.res.Mismatches += len(want)
			continue
		}
		for i := range vs {
			if vs[i] != want[i] {
				r.res.Mismatches++
			}
		}
	}
	return nil
}

func decodeLines[T any](b []byte) ([]T, error) {
	var out []T
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var v T
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTime is the process's user + system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
