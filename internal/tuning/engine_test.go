package tuning

import (
	"fmt"
	"testing"

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
			for pass := 0; pass < 2; pass++ { // pass 1 serves from the LRU cache
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

// TestEngineCacheEviction pins the LRU behavior: capacity bounds the entry
// count and evicted lines still score correctly on recompute.
func TestEngineCacheEviction(t *testing.T) {
	f := getFixture(t)
	cfg := DefaultEngineConfig()
	cfg.CacheLines = 4
	engine := NewEngine(f.mdl.Encoder, f.tok, cfg)

	lines := f.trainX[:12]
	want, err := EmbedLinesTape(f.mdl.Encoder, f.tok, lines)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := engine.EmbedLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("pass %d: element %d mismatch", pass, i)
			}
		}
		if n := engine.cache.len(); n > 4 {
			t.Fatalf("pass %d: cache holds %d entries, cap 4", pass, n)
		}
	}
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
	c := newLRUCache[float64](2)
	c.put("a", []float64{1})
	c.put("b", []float64{2})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", []float64{3}) // evicts b (a was refreshed)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should survive")
	}
	if row, ok := c.get("c"); !ok || row[0] != 3 {
		t.Errorf("c = %v, %v", row, ok)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Stored rows are copies: mutating the source must not corrupt the
	// cache.
	src := []float64{9}
	c.put("d", src)
	src[0] = -1
	if row, _ := c.get("d"); row[0] != 9 {
		t.Errorf("cache shares caller memory: %v", row)
	}
}

// TestEngineEncodedCache pins the encoded-line LRU tier: with the
// embedding cache off, repeat calls must serve token sequences from the
// encoded cache (hits accrue, entries stay bounded) and both feature kinds
// share the same entries — all without changing a single output bit.
func TestEngineEncodedCache(t *testing.T) {
	f := getFixture(t)
	lines := engineFixtureLines(f)
	want, err := EmbedLinesTape(f.mdl.Encoder, f.tok, lines)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EngineConfig{CacheLines: -1, EncodedCacheLines: 64}
	engine := NewEngine(f.mdl.Encoder, f.tok, cfg)
	reps := int64(engine.CacheStats().EncodedMisses) // 0 before traffic
	if reps != 0 {
		t.Fatalf("fresh engine has encoded misses: %d", reps)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := engine.EmbedLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("pass %d: element %d mismatch", pass, i)
			}
		}
	}
	st := engine.CacheStats()
	if st.EncodedHits == 0 {
		t.Fatal("second pass never hit the encoded cache")
	}
	if st.EncodedMisses == 0 || st.EncodedHits != st.EncodedMisses {
		t.Fatalf("want one hit per first-pass miss, got hits=%d misses=%d", st.EncodedHits, st.EncodedMisses)
	}
	if st.EncodedEntries == 0 || st.EncodedEntries > 64 {
		t.Fatalf("encoded entries %d outside (0, 64]", st.EncodedEntries)
	}
	// CLS rows need the same token sequences: the encoded cache is shared
	// across feature kinds, so this call is all hits.
	if _, err := engine.CLSLines(lines); err != nil {
		t.Fatal(err)
	}
	st2 := engine.CacheStats()
	if st2.EncodedMisses != st.EncodedMisses {
		t.Fatalf("CLS pass re-encoded %d lines", st2.EncodedMisses-st.EncodedMisses)
	}
}

// TestEngineEncodedCacheBounded forces eviction pressure on a tiny encoded
// cache and checks correctness survives it.
func TestEngineEncodedCacheBounded(t *testing.T) {
	f := getFixture(t)
	var lines []string
	for i := 0; i < 60; i++ {
		lines = append(lines, fmt.Sprintf("tail -n %d /var/log/app%d.log", i, i))
	}
	cfg := EngineConfig{CacheLines: -1, EncodedCacheLines: 4, Workers: 4}
	engine := NewEngine(f.mdl.Encoder, f.tok, cfg)
	want, err := EmbedLinesTape(f.mdl.Encoder, f.tok, lines)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := engine.EmbedLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("pass %d: element %d mismatch", pass, i)
			}
		}
		if n := engine.CacheStats().EncodedEntries; n > 4 {
			t.Fatalf("pass %d: encoded cache holds %d entries, cap 4", pass, n)
		}
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
