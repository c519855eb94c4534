// Command bench is the repository's end-to-end benchmark: clmserve's
// serving stack on loopback HTTP, driven by closed-loop clients over four
// traffic mixes, with every output checked and each layer's share of the
// client-observed time attributed from a separate traced phase.
//
// Usage, from the repository root (run.sh builds this program, trains the
// bundle it serves and passes -bundle):
//
//	bash bench/run.sh [-seed N]             all workloads, 30 s untraced + 10 s traced each
//	bash bench/run.sh -workload warm-single -seconds 20 -trace 0
//
// See README.md for the workloads, metrics, bounds and layer budgets.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"clmids/internal/core"
)

// metricDef names a printed metric; BENCHMARK.json declares the same set.
type metricDef struct {
	name, unit string
	layer      bool // per-layer (traced run) rather than end-to-end
}

var metricDefs = []metricDef{
	{"lines_per_s", "lines/s", false},
	{"verdict_p50_ms", "ms", false},
	{"setup_s", "s", false},
	{"rss_mb", "MB", false},

	{"client.us_per_line", "us/line", true},
	{"serve.us_per_line", "us/line", true},
	{"wire.bytes_in_per_line", "B/line", true},
	{"wire.bytes_out_per_line", "B/line", true},
	{"fleet.us_per_line", "us/line", true},
	{"fleet.hop_us_per_line", "us/line", true},
	{"fleet.retries", "count", true},
	{"fleet.failovers", "count", true},
	{"stream.us_per_line", "us/line", true},
	{"stream.inputs_per_line", "inputs/line", true},
	{"tuning.us_per_line", "us/line", true},
	{"tuning.busy_us_per_input", "us/input", true},
	{"tuning.cache_hit_rate", "frac", true},
	{"tuning.encoded_hit_rate", "frac", true},
	{"cascade.rarity_us_per_line", "us/line", true},
	{"cascade.triage_us_per_line", "us/line", true},
	{"cascade.confirm_us_per_line", "us/line", true},
	{"cascade.cleared_frac", "frac", true},
	{"cascade.escalated_frac", "frac", true},
	{"setup.load_s", "s", true},
	{"go.heap_mb", "MB", true},
	{"go.allocs_per_line", "allocs/line", true},
	{"go.bytes_per_line", "B/line", true},
	{"go.gc_per_mline", "GC/Mline", true},
	{"cpu_us_per_line", "us/line", true},
	{"client.verdict_p95_ms", "ms", true},
	{"trace.overhead_frac", "frac", true},
}

// setups is how many times each run builds its stack; setup_s is the median.
const setups = 5

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	workloadF := flag.String("workload", "all", "workload: "+strings.Join(names, " | ")+" | all")
	seed := flag.Int64("seed", 1, "traffic seed; the bundle is always trained with seed 1")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload; 0 means 30 untraced + 10 traced")
	trace := flag.Int("trace", -1, "0: untraced phase only, print end-to-end metrics; 1: split the seconds between an untraced and a traced phase, print per-layer metrics; -1: print both")
	bundle := flag.String("bundle", "", "the bundle `clmtrain -cascade -epochs 1 -seed 1 -bundle` made (run.sh trains it)")
	out := flag.String("out", "out", "directory for <workload>.trace.json")
	child := flag.String("child", "", "internal: run one workload in this process and print its result as JSON")
	untraced := flag.Duration("untraced", 0, "internal: untraced phase length, with -child")
	traced := flag.Duration("traced", 0, "internal: traced phase length, with -child")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *bundle == "" {
		return fmt.Errorf("-bundle is required; bench/run.sh trains one")
	}

	if *child != "" {
		w, ok := findWorkload(*child)
		if !ok {
			return fmt.Errorf("unknown workload %q", *child)
		}
		res, err := runWorkload(runConfig{
			w: w, seed: *seed, bundle: *bundle, untraced: *untraced, traced: *traced,
			setups: setups, fill: fillRequests, novelN: novelEvents, traceDir: *out,
		})
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	var todo []workload
	if *workloadF == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workloadF); ok {
		todo = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q (want %s or all)", *workloadF, strings.Join(names, ", "))
	}
	if *trace < -1 || *trace > 1 {
		return fmt.Errorf("-trace must be 0, 1 or -1")
	}
	u, t := 30*time.Second, 10*time.Second
	if *seconds > 0 {
		s := time.Duration(*seconds * float64(time.Second))
		switch *trace {
		case 0:
			u, t = s, 0
		case 1:
			u, t = s/2, s/2
		default:
			u, t = s*3/4, s/4
		}
	} else if *trace == 0 {
		t = 0
	}

	printHeader(*bundle, *seed)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var last *runResult
	bad := 0
	for _, w := range todo {
		res, err := runChild(exe, w, *seed, *bundle, u, t, *out)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		printResult(w, res, u, t)
		if !res.Correct {
			bad++
		}
		last = res
	}
	if len(todo) == 1 {
		// The machine-readable summary is the last line of standard output.
		line, err := summary(last, *trace)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if bad > 0 {
		return fmt.Errorf("%d workload(s) failed verification or had failed requests", bad)
	}
	return nil
}

// summary is one JSON object with the request counts and every end-to-end
// metric (trace 0), every per-layer metric (trace 1), or both (-1).
func summary(res *runResult, trace int) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range metricDefs {
		if (trace == 0 && d.layer) || (trace == 1 && !d.layer) {
			continue
		}
		v, ok := res.Metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = value{v, d.unit}
	}
	return json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms,
	})
}

// runChild runs one workload in a fresh process, so its memory and
// runtime state owe nothing to the other workloads.
func runChild(exe string, w workload, seed int64, bundle string, u, t time.Duration, out string) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), u+t+120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-bundle", bundle, "-untraced", u.String(), "-traced", t.String(), "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func printHeader(bundle string, seed int64) {
	version := "?"
	if b, err := os.ReadFile(filepath.Join(bundle, core.ManifestFile)); err == nil {
		var m core.BundleManifest
		if json.Unmarshal(b, &m) == nil {
			version = m.Version
		}
	}
	fmt.Printf("# clmids loopback-HTTP benchmark: %s GOMAXPROCS=%d nproc=%d cpu=%q bundle=%s seed=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), version, seed)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printResult(w workload, res *runResult, u, t time.Duration) {
	in := res.Info
	fmt.Printf("\n## %s — %s\n", w.name, w.why)
	fmt.Printf("input: %.0f events/pass, %.1f%% distinct lines, %.0f users; %d clients × %d-event requests; pre-encoded bodies %.1f MB (counted in rss_mb)\n",
		in["input.events"], 100*in["input.distinct_frac"], in["input.users"], clients, chunk, in["input.bodies_mb"])
	if share, ok := in["input.replica0_share"]; ok {
		fmt.Printf("fleet: %.1f%% / %.1f%% of events on the two replicas\n", 100*share, 100*(1-share))
	}
	fmt.Printf("phases: untraced %s, traced %s; %d requests (%d failed), %d verdict mismatches in the verified warm-ups\n",
		u, t, res.Attempted, res.Failed, res.Mismatches)
	fmt.Printf("host speed %.3f of the reference; as measured: %.0f lines/s, p50 %.3f ms, set-up %.4f s\n",
		in["host.speed"], in["raw.lines_per_s"], in["raw.verdict_p50_ms"], in["raw.setup_s"])
	for _, d := range metricDefs {
		v, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		note := ""
		switch d.name {
		case "verdict_p50_ms":
			note = fmt.Sprintf("  (%.0f requests)", in["latency.samples"])
		case "client.us_per_line":
			note = fmt.Sprintf("  (layers sum to %.2f of %.2f us/line client-observed over %.0f traced requests)",
				in["trace.layer_sum_us_per_line"], in["trace.client_observed_us_per_line"], in["trace.requests"])
		}
		fmt.Printf("  %-28s %14.4f %s%s\n", d.name, v, d.unit, note)
	}
	if !res.Correct {
		fmt.Println("  VERIFICATION FAILED")
	}
}
