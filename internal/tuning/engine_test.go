package tuning

import (
	"fmt"
	"math"
	"testing"

	"clmids/internal/model"
	"clmids/internal/tensor"
)

// engineFixtureLines returns a scoring workload with deliberate duplicates
// and whitespace variants of the same command.
func engineFixtureLines(f *fixture) []string {
	lines := append([]string(nil), f.trainX[:40]...)
	lines = append(lines, f.trainX[0], f.trainX[1]) // exact duplicates
	lines = append(lines, "  "+f.trainX[2]+"  ")    // whitespace variant
	lines = append(lines, f.testPos[:5]...)
	lines = append(lines, f.testPos[0])
	return lines
}

// TestEngineMatchesTapePath is the end-to-end golden test: the batched,
// deduped, parallel engine must reproduce the tape path's embeddings
// exactly for every line, in order, for both feature kinds.
func TestEngineMatchesTapePath(t *testing.T) {
	f := getFixture(t)
	lines := engineFixtureLines(f)

	for _, tc := range []struct {
		name string
		tape func() (*tensor.Matrix, error)
		eng  func(e *Engine) (*tensor.Matrix, error)
	}{
		{"mean-pool", func() (*tensor.Matrix, error) { return EmbedLinesTape(f.mdl.Encoder, f.tok, lines) },
			func(e *Engine) (*tensor.Matrix, error) { return e.EmbedLines(lines) }},
		{"cls", func() (*tensor.Matrix, error) { return CLSLinesTape(f.mdl.Encoder, f.tok, lines) },
			func(e *Engine) (*tensor.Matrix, error) { return e.CLSLines(lines) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.tape()
			if err != nil {
				t.Fatal(err)
			}
			engine := NewEngine(f.mdl.Encoder, f.tok, DefaultEngineConfig())
			for pass := 0; pass < 2; pass++ { // pass 1 recomputes: no row is cached
				got, err := tc.eng(engine)
				if err != nil {
					t.Fatal(err)
				}
				if !want.SameShape(got) {
					t.Fatalf("pass %d: shape %dx%d, want %dx%d", pass, got.Rows, got.Cols, want.Rows, want.Cols)
				}
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("pass %d: element %d: engine %g, tape %g", pass, i, got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// TestEngineSmallBudgets forces many tiny batches so the scheduler's
// bucketing, budget splitting, and scatter-back all get exercised.
func TestEngineSmallBudgets(t *testing.T) {
	f := getFixture(t)
	lines := engineFixtureLines(f)
	want, err := EmbedLinesTape(f.mdl.Encoder, f.tok, lines)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EngineConfig{BatchLines: 2, BatchTokens: 1, Workers: 3, CacheLines: 8}
	got, err := NewEngine(f.mdl.Encoder, f.tok, cfg).EmbedLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d: engine %g, tape %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestEngineMemoEviction pins the memo's bound: under eviction pressure
// from a tiny memo the entry count never exceeds capacity, and evicted
// inputs score exactly as before on recompute.
func TestEngineMemoEviction(t *testing.T) {
	f := getFixture(t)
	det := testPCAScorer(t).Detector()
	ref := NewPCAScorer(NewEngine(f.mdl.Encoder, f.tok, EngineConfig{}), det) // memo off
	sc := NewPCAScorer(NewEngine(f.mdl.Encoder, f.tok, EngineConfig{CacheLines: 4, Workers: 4}), det)

	lines := f.trainX[:12]
	want, err := ref.Score(lines)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for _, w := range [][2]int{{0, 12}, {0, 3}, {0, 3}, {9, 12}} {
			got, err := sc.Score(lines[w[0]:w[1]])
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("pass %d window %v", pass, w), got, want[w[0]:w[1]])
			if n := sc.CacheStats().Entries; n > 4 {
				t.Fatalf("pass %d: memo holds %d entries, cap 4", pass, n)
			}
		}
	}
	if st := sc.CacheStats(); st.Hits == 0 {
		t.Fatalf("a repeated 3-line window never hit a 4-entry memo: %+v", st)
	}
}

// TestEngineMemoMatchesRecompute is the memo's correctness contract: for
// every method at f64 and int8, a memo hit is bitwise the score a fresh
// recompute gives, whether the memo was filled one line at a time or in
// batches of any size.
func TestEngineMemoMatchesRecompute(t *testing.T) {
	lines := engineFixtureLines(getFixture(t))
	for name, s := range concurrencyScorers(t) {
		for _, prec := range []model.Precision{model.PrecisionFloat64, model.PrecisionInt8} {
			t.Run(name+"/"+string(prec), func(t *testing.T) {
				at := func() Scorer {
					sc, err := AtPrecision(s, prec)
					if err != nil {
						t.Fatal(err)
					}
					return sc
				}
				want, err := at().Score(lines)
				if err != nil {
					t.Fatal(err)
				}
				for _, split := range []int{1, 3, 7} {
					sc := at()
					for lo := 0; lo < len(lines); lo += split {
						hi := min(lo+split, len(lines))
						got, err := sc.Score(lines[lo:hi])
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, fmt.Sprintf("split %d fill", split), got, want[lo:hi])
					}
					before := sc.(CacheStatser).CacheStats()
					got, err := sc.Score(lines)
					if err != nil {
						t.Fatal(err)
					}
					if after := sc.(CacheStatser).CacheStats(); after.Misses != before.Misses {
						t.Fatalf("split %d: warm pass missed %d inputs", split, after.Misses-before.Misses)
					}
					sameBits(t, fmt.Sprintf("split %d hit", split), got, want)
				}
			})
		}
	}
}

// sameBits fails unless got and want are bitwise equal.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: line %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestEngineMemoCountsDistinctInputs: every distinct input of a call
// probes the memo exactly once, so Hits+Misses is the running count of
// distinct inputs per call. A within-call duplicate never probes, and a
// miss is counted once, not again by the forward path.
func TestEngineMemoCountsDistinctInputs(t *testing.T) {
	f := getFixture(t)
	sc := testPCAScorer(t)
	lines := engineFixtureLines(f)
	calls := [][]string{lines, lines, append(append([]string(nil), f.testNeg[:6]...), lines[:4]...)}
	var probes int64
	for c, call := range calls {
		if _, err := sc.Score(call); err != nil {
			t.Fatal(err)
		}
		probes += distinct(call)
		st := sc.CacheStats()
		if st.Hits+st.Misses != probes {
			t.Fatalf("call %d: hits %d + misses %d, want %d distinct probes", c, st.Hits, st.Misses, probes)
		}
		if c == 0 && (st.Hits != 0 || int64(st.Entries) != st.Misses) {
			t.Fatalf("cold call: %+v, want all misses, one entry each", st)
		}
		if c == 1 && st.Hits != distinct(lines) {
			t.Fatalf("warm call: %d hits, want %d", st.Hits, distinct(lines))
		}
	}
}

// distinct counts the distinct inputs of one call: the memo probes each
// once.
func distinct(in []string) int64 {
	seen := make(map[string]bool)
	for _, ln := range in {
		seen[ln] = true
	}
	return int64(len(seen))
}

// TestEngineEmptyInput pins the streaming contract: flushing an empty
// window is normal, so empty input yields a 0-row matrix, not an error.
func TestEngineEmptyInput(t *testing.T) {
	f := getFixture(t)
	engine := NewEngine(f.mdl.Encoder, f.tok, EngineConfig{})
	for _, fn := range []func([]string) (*tensor.Matrix, error){engine.EmbedLines, engine.CLSLines} {
		got, err := fn(nil)
		if err != nil {
			t.Fatalf("empty input: %v", err)
		}
		if got.Rows != 0 || got.Cols != f.mdl.Encoder.Config().Hidden {
			t.Fatalf("empty input shape %dx%d, want 0x%d", got.Rows, got.Cols, f.mdl.Encoder.Config().Hidden)
		}
	}
}

func TestNormalizeLine(t *testing.T) {
	cases := [][2]string{
		{"ls  -la   /tmp", "ls -la /tmp"},
		{"  ls -la /tmp\t", "ls -la /tmp"},
		{"ls -la /tmp", "ls -la /tmp"},
	}
	for _, c := range cases {
		if got := normalizeLine(c[0]); got != c[1] {
			t.Errorf("normalizeLine(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b (a was refreshed)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should survive")
	}
	if v, ok := c.get("c"); !ok || v != 3 {
		t.Errorf("c = %v, %v", v, ok)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// A disabled (nil) memo never hits and holds nothing.
	var off *lruCache
	off.put("a", 1)
	if _, ok := off.get("a"); ok || off.len() != 0 {
		t.Error("nil memo stored an entry")
	}
}

// TestEngineManyLines pushes a larger deduplicated workload through the
// scheduler to shake out races (run with -race in CI).
func TestEngineManyLines(t *testing.T) {
	f := getFixture(t)
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("ls -la /srv/app%d", i%37))
	}
	engine := NewEngine(f.mdl.Encoder, f.tok, EngineConfig{Workers: 4, CacheLines: 16})
	got, err := engine.EmbedLines(lines)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EmbedLinesTape(f.mdl.Encoder, f.tok, lines)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d mismatch", i)
		}
	}
}

// TestCacheStatsZeroTraffic guards the HitRate division edge: a scorer
// that has served no traffic (0 hits + 0 misses — exactly what a /stats
// scrape sees right after a cold start or a hot swap) reports 0, not NaN.
func TestCacheStatsZeroTraffic(t *testing.T) {
	var zero CacheStats
	if got := zero.HitRate(); got != 0 {
		t.Fatalf("zero-traffic hit rate %v, want 0", got)
	}
	if got := (CacheStats{Hits: 3}).HitRate(); got != 1 {
		t.Fatalf("all-hit rate %v, want 1", got)
	}
	if got := (CacheStats{Misses: 5}).HitRate(); got != 0 {
		t.Fatalf("all-miss rate %v, want 0", got)
	}
}
