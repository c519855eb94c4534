package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsInProcess runs every workload for about a second on a tiny
// bundle, traced, and checks that no request fails, the warm-ups verify,
// every declared metric is produced, and the layer budget adds up.
func TestWorkloadsInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bundle")
	}
	dir := trainTinyBundle(t)
	bm := loadBenchmarkJSON(t)
	traces := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(runConfig{
				w: w, seed: 3, bundle: dir,
				untraced: 700 * time.Millisecond, traced: 300 * time.Millisecond,
				setups: 1, fill: 4, novelN: 6000, traceDir: traces,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Mismatches != 0 || !res.Correct {
				t.Fatalf("failed=%d mismatches=%d correct=%v", res.Failed, res.Mismatches, res.Correct)
			}
			if res.Attempted <= 2*warmupRounds*clients {
				t.Fatalf("only %d requests attempted", res.Attempted)
			}
			for trace, want := range map[int][]metric{0: bm.EndToEnd, 1: bm.PerLayer} {
				line, err := summary(res, trace)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("trace %d: printed %d metrics, BENCHMARK.json declares %d", trace, len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok || g.Unit != m.Unit || math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
						t.Errorf("trace %d: metric %s printed as %+v (present %v), want unit %s", trace, m.Name, g, ok, m.Unit)
					}
				}
			}
			for _, name := range []string{"lines_per_s", "verdict_p50_ms", "setup_s", "rss_mb"} {
				if res.Metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name])
				}
			}
			sum, total := res.Info["trace.layer_sum_us_per_line"], res.Info["trace.client_observed_us_per_line"]
			if total <= 0 || math.Abs(sum-total) > 1e-6*total {
				t.Errorf("layers sum to %v us/line, clients observed %v", sum, total)
			}
			var trace struct {
				TraceEvents []struct{ Ph string } `json:"traceEvents"`
			}
			b, err := os.ReadFile(filepath.Join(traces, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Ph != "X" {
				t.Errorf("trace file: %d events, err %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// trainTinyBundle builds clmgen and clmtrain and trains the bundle run.sh
// trains, on a 1.5k-line train split instead of the default 8k.
func trainTinyBundle(t *testing.T) string {
	t.Helper()
	bin, dir := t.TempDir(), t.TempDir()
	cmds := [][]string{
		{"go", "build", "-o", bin + string(filepath.Separator), "clmids/cmd/clmgen", "clmids/cmd/clmtrain"},
		{filepath.Join(bin, "clmgen"), "-train", "1500", "-test", "10", "-seed", "1", "-out", dir},
		{filepath.Join(bin, "clmtrain"), "-data", filepath.Join(dir, "train.jsonl"), "-out", filepath.Join(dir, "model"),
			"-cascade", "-epochs", "1", "-seed", "1", "-bundle", filepath.Join(dir, "bundle")},
	}
	for _, c := range cmds {
		if out, err := exec.Command(c[0], c[1:]...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(c, " "), err, out)
		}
	}
	return filepath.Join(dir, "bundle")
}

// TestAttributeSplitsConcurrentSpans pins the attribution rule: each
// instant goes to the innermost active span, split evenly between
// concurrently active siblings, and scorer spans hang off the stream spans
// they overlap on their own replica only.
func TestAttributeSplitsConcurrentSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "client", ID: 1, Req: 1, Rep: -1, Start: ms(0), End: ms(100)},
		{Name: "serve", ID: 2, Parent: 1, Req: 1, Start: ms(10), End: ms(90)},
		{Name: "stream", ID: 3, Parent: 2, Req: 1, Start: ms(20), End: ms(80)},
		{Name: "tuning", ID: 4, Lane: 0, Start: ms(30), End: ms(50)},
		{Name: "tuning", ID: 5, Lane: 1, Start: ms(40), End: ms(70)},
		{Name: "cascade.triage", ID: 6, Parent: 4, Start: ms(32), End: ms(36)},
		{Name: "tuning", ID: 7, Rep: 1, Start: ms(20), End: ms(80)}, // another replica
	}
	at := attribute(spans)
	want := map[string]time.Duration{
		"client": ms(20), "serve": ms(20), "stream": ms(20),
		// 30-40 lane 0 alone (4 of it in triage), 40-50 split, 50-70 lane 1.
		"tuning": ms(6 + 5 + 5 + 20), "cascade.triage": ms(4),
	}
	if !reflect.DeepEqual(at.layer, want) || at.total != ms(100) || at.requests != 1 {
		t.Fatalf("attribution %v total %v requests %d; want %v total 100ms", at.layer, at.total, at.requests, want)
	}
}

type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestBenchmarkJSON checks BENCHMARK.json against its limits and against
// what this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bm.Workloads) < 2 || len(bm.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(bm.Workloads))
	}
	if len(bm.EndToEnd) < 1 || len(bm.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(bm.EndToEnd))
	}
	if len(bm.PerLayer) < 1 || len(bm.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(bm.PerLayer))
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bm.RunSeconds)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) || len(bm.Command) == 0 {
		t.Errorf("paths %v command %v", bm.Paths, bm.Command)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, the program runs %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("declared workload %d is %q (%q), the program runs %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	maxBound, setupBound := 0.0, -1.0
	for _, m := range bm.EndToEnd {
		checkName(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.10 {
			t.Errorf("end-to-end %s: bound %v, want (0, 0.10]", m.Name, m.Bound)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: unit %q better %q", m.Unit, m.Better)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	for _, m := range bm.PerLayer {
		checkName(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer %s carries a bound", m.Name)
		}
	}
	declared := map[string]metric{}
	for _, group := range [][]metric{bm.EndToEnd, bm.PerLayer} {
		for _, m := range group {
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
			}
			declared[m.Name] = m
		}
	}
	if len(declared) != len(metricDefs) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program prints %d", len(declared), len(metricDefs))
	}
	for _, d := range metricDefs {
		m, ok := declared[d.name]
		if !ok || m.Unit != d.unit || (m.Bound == nil) != d.layer {
			t.Errorf("printed metric %s (%s, per-layer %v) is declared as %+v", d.name, d.unit, d.layer, m)
		}
	}
}
