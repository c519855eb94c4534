package tuning

import (
	"fmt"
	"hash/fnv"
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

// TestLRUCache pins the memo's admission rule. Below capacity every put is
// kept. Once the memo is full every access is recorded in the frequency
// sketch, a hit in get and a miss in its put, and a new key replaces the
// least-recently-used entry only if its estimate is strictly greater; a
// tie is declined and counted.
func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	// The residents that filled the memo were never recorded (estimate 0),
	// so the first recorded newcomer replaces the tail, b.
	c.put("c", 3)
	if _, ok := c.get("b"); ok {
		t.Error("b (the LRU tail) should have made way for c")
	}
	// d replaces a (estimate 0); e then ties the new tail c at one
	// recorded miss and is declined, and its second miss wins.
	c.put("d", 4)
	c.put("e", 5)
	if _, ok := c.get("e"); ok {
		t.Error("e was admitted on a tie with the tail")
	}
	if _, declined := c.stats(); declined != 1 {
		t.Errorf("declined = %d, want 1", declined)
	}
	c.put("e", 5)
	if _, ok := c.get("c"); ok {
		t.Error("c should have been replaced by the more frequent e")
	}
	// Hits count: d's hit lifts it to two, so f, the next newcomer, is
	// declined at one and two recorded misses and admitted at three.
	for _, want := range []struct {
		key   string
		score float64
	}{{"d", 4}, {"e", 5}} {
		if v, ok := c.get(want.key); !ok || v != want.score {
			t.Errorf("%s = %v, %v; want %v", want.key, v, ok, want.score)
		}
	}
	for miss := 1; miss <= 3; miss++ {
		c.put("f", 6)
		if _, ok := c.items["f"]; ok != (miss == 3) {
			t.Errorf("after f's miss %d admitted = %v", miss, ok)
		}
	}
	if _, ok := c.items["d"]; ok {
		t.Error("d, the tail, should have made way for f")
	}
	// A put of a present key keeps the entry and its score: a concurrent
	// caller computed the same bits.
	c.put("e", 7)
	if v, _ := c.get("e"); v != 5 {
		t.Errorf("e = %v after re-put, want 5", v)
	}
	if n, declined := c.stats(); n != 2 || declined != 3 {
		t.Errorf("len, declined = %d, %d; want 2, 3", n, declined)
	}
	// A disabled (nil) memo never hits and holds nothing.
	var off *lruCache
	off.put("a", 1)
	if _, ok := off.get("a"); ok {
		t.Error("nil memo stored an entry")
	}
	if n, declined := off.stats(); n != 0 || declined != 0 {
		t.Errorf("nil memo stats %d, %d", n, declined)
	}
}

// TestMemoKeepsHotSetUnderScan pins what the admission filter is for: a
// hot set of half the memo's capacity, probed once per round, survives
// rounds of capacity-many one-off keys in between. A plain LRU of the same
// capacity would hold none of it: each round's one-offs are enough to push
// every hot key out before it is probed again. Hits are free: a memo hit
// allocates nothing.
func TestMemoKeepsHotSetUnderScan(t *testing.T) {
	const n = 1024
	c := newLRUCache(n)
	probe := func(key string) {
		if _, ok := c.get(key); !ok {
			c.put(key, float64(len(key)))
		}
	}
	hot := make([]string, n/2)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot %d", i)
	}
	for round, scan := 0, 0; round < 10; round++ {
		for _, key := range hot {
			probe(key)
		}
		for end := scan + n; scan < end; scan++ {
			probe(fmt.Sprintf("one-off %d", scan))
		}
	}
	held := 0
	for _, key := range hot {
		if _, ok := c.items[key]; ok {
			held++
		}
	}
	if held < len(hot)*9/10 {
		t.Fatalf("memo holds %d of %d hot keys after 10·cap one-offs, want ≥ 90%%", held, len(hot))
	}
	if entries, _ := c.stats(); entries > c.cap {
		t.Fatalf("memo holds %d entries, cap %d", entries, c.cap)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.get(hot[0]) }); allocs != 0 {
		t.Errorf("memo hit allocates %v times, want 0", allocs)
	}
}

// memoRefHash and memoRefPos are the fuzz reference's key hash and
// counter positions, written out apart from hashKey and freqSketch.index
// so that an indexing fault (overlapping rows, a mask that drops a row,
// seeds that collide) shows as a counter that differs from the reference.
func memoRefHash(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key))
	h := f.Sum64()
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func memoRefPos(h uint64, row int, width uint64) uint64 {
	seed := [4]uint64{0xc3a5c85c97cb3127, 0xb492b66fbe98f273, 0x9ae16a3b2f90404f, 0xcbf29ce484222325}[row]
	x := (h + seed) * seed
	return uint64(row)*width + (x+x>>32)&(width-1)
}

// FuzzMemoOps runs a schedule of memo operations decoded from the fuzz
// bytes against a reference model: a map of the first score put per key
// (a re-put of a present key keeps it), and one plain integer per sketch
// counter. The first byte sets the capacity (1–8); each later byte is one
// operation on one of 16 keys (high nibble): a put (low bits 0–1), a get
// (2), or a forced halving of the sketch (3). Small capacities also age
// the sketch on their own every 10–80 recorded accesses. Checked after
// every step:
//   - a hit returns the reference's score for its key;
//   - the memo never holds more than its capacity, and its list and map
//     agree;
//   - no counter wraps: every packed 4-bit counter equals its reference
//     integer, which saturates at 15 and halves when the sketch ages, so a
//     counter that wrapped, or carried into its neighbour, differs.
func FuzzMemoOps(f *testing.F) {
	// The 16 keys spread over a 16-wide sketch's rows: no two share a
	// counter in every row, which a seed collision would make them do.
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			hi, hj := memoRefHash(fmt.Sprintf("key %d", i)), memoRefHash(fmt.Sprintf("key %d", j))
			shared := 0
			for r := 0; r < sketchRows; r++ {
				if memoRefPos(hi, r, 16) == memoRefPos(hj, r, 16) {
					shared++
				}
			}
			if shared == sketchRows {
				f.Fatalf("key %d and key %d share a counter in all %d rows", i, j, sketchRows)
			}
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		c := newLRUCache(1 + int(ops[0]%8))
		first := make(map[string]float64)
		var cells []uint64 // reference counters, by sketch position
		var added int      // recorded accesses since the last halving
		age := func() {
			for i := range cells {
				cells[i] /= 2
			}
			added = 0
		}
		record := func(key string) {
			if cells == nil {
				cells = make([]uint64, sketchRows*c.freq.width)
			}
			h := memoRefHash(key)
			for r := 0; r < sketchRows; r++ {
				i := memoRefPos(h, r, c.freq.width)
				cells[i] = min(cells[i]+1, sketchMax)
			}
			if added++; added == sketchAgeEvery*c.cap {
				age()
			}
		}
		for step, op := range ops[1:] {
			key := fmt.Sprintf("key %d", op>>4)
			_, present := c.items[key]
			switch op & 3 {
			case 0, 1:
				recorded := c.freq != nil || len(c.items) == c.cap
				c.put(key, float64(step))
				if !present {
					first[key] = float64(step)
				}
				if recorded {
					record(key)
				}
			case 2:
				v, ok := c.get(key)
				if ok != present {
					t.Fatalf("step %d: get(%q) hit %v, resident %v", step, key, ok, present)
				}
				if ok && v != first[key] {
					t.Fatalf("step %d: get(%q) = %v, first put %v", step, key, v, first[key])
				}
				if ok && c.freq != nil {
					record(key)
				}
			case 3:
				if c.freq != nil {
					c.freq.age()
					age()
				}
			}
			for key := range first {
				if _, ok := c.items[key]; !ok {
					delete(first, key)
				}
			}

			n, _ := c.stats()
			if n > c.cap {
				t.Fatalf("step %d: %d entries, cap %d", step, n, c.cap)
			}
			linked := 0
			for ent := c.head; ent != nil; ent = ent.next {
				if c.items[ent.key] != ent {
					t.Fatalf("step %d: listed key %q not mapped to its node", step, ent.key)
				}
				linked++
			}
			if linked != n {
				t.Fatalf("step %d: %d listed entries, %d mapped", step, linked, n)
			}
			for i, want := range cells {
				if got := c.freq.count(uint64(i)); got != want {
					t.Fatalf("step %d: counter %d is %d, reference %d", step, i, got, want)
				}
			}
		}
	})
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
