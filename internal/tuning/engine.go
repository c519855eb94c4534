package tuning

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"clmids/internal/bpe"
	"clmids/internal/model"
	"clmids/internal/tensor"
)

// Engine is the forward-only batched inference engine: it embeds command
// lines through the tape-free model.InferForward path instead of the
// autograd tape, dedupes repeated lines, encodes the rest in parallel,
// buckets them by exact token length into uniform batches, and fans those
// batches out across GOMAXPROCS workers, each with its own pooled scratch
// arena.
//
// Score puts a score memo in front of that path: an LRU keyed by the exact
// scorer input that holds the method head's final score, behind a TinyLFU
// admission filter that keeps one-off lines from evicting recurring ones.
// Real command logs are duplicate-heavy, and a repeated input costs one memo
// probe, skipping the tokenizer, the backbone and the head. EmbedLines and
// CLSLines are uncached; they serve training and experiments.
//
// An Engine must only be used while its encoder's weights are frozen:
// memoized scores are never invalidated. Methods are safe for concurrent
// use.
type Engine struct {
	enc *model.Encoder
	tok *bpe.Tokenizer
	cfg EngineConfig

	pool sync.Pool // *model.InferScratch, one per active worker
	memo *lruCache // final scores by exact input; nil when disabled

	memoHits   atomic.Int64 // distinct inputs answered by the memo
	memoMisses atomic.Int64 // distinct inputs that ran the forward path
}

// EngineConfig sizes the inference engine. The zero value selects defaults.
type EngineConfig struct {
	// BatchLines caps sequences per forward batch (default 32, matching
	// the tape path's batch size).
	BatchLines int
	// BatchTokens caps total tokens per forward batch and sizes each
	// worker's scratch arena (default 2048, raised to the model's
	// MaxSeqLen so one full line always fits).
	BatchTokens int
	// Workers caps the batch-level fan-out (default GOMAXPROCS).
	Workers int
	// CacheLines bounds Score's memo: up to this many distinct inputs keep
	// their final score (0 or negative disables the memo).
	CacheLines int
	// Precision selects the serve-path arithmetic (the zero value is
	// float64, the canonical path). At int8 every worker scratch is a
	// float32 activation arena and the encoder's weights are lowered once at
	// engine construction; embeddings leaving the engine stay canonical
	// float64, so the heads and verdict aggregation run unchanged.
	Precision model.Precision
}

// DefaultEngineConfig returns the deployment defaults: tape-path batch
// geometry, full-machine fan-out, and a 16,384-entry score memo.
//
// The memo's size is a byte budget, not a working-set guess. It replaced a
// 4096-row embedding LRU and a 4096-line token-sequence LRU, about 3.4 MB
// per engine at hidden width 48. A memo entry (key bytes, list node, map
// slot, one float64) measures about 165 B with a 61-byte key, so 16,384
// entries take about 2.7 MB.
//
// Once full, the memo admits a missed input only if a frequency sketch
// estimates it strictly more frequent than the least-recently-used entry
// it would replace; otherwise the score is returned but not kept. The
// sketch (four rows of 16,384 4-bit counters that count hits and misses,
// halved every 163,840 recorded accesses) takes 32 KiB per engine, built
// when the memo first fills.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{BatchLines: embedBatchSize, BatchTokens: 2048, CacheLines: 16384}
}

// NewEngine builds an inference engine over a frozen encoder + tokenizer.
func NewEngine(enc *model.Encoder, tok *bpe.Tokenizer, cfg EngineConfig) *Engine {
	if cfg.BatchLines <= 0 {
		cfg.BatchLines = embedBatchSize
	}
	if cfg.BatchTokens <= 0 {
		cfg.BatchTokens = 2048
	}
	if mcfg := enc.Config(); cfg.BatchTokens < mcfg.MaxSeqLen {
		cfg.BatchTokens = mcfg.MaxSeqLen
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Precision == "" {
		cfg.Precision = model.PrecisionFloat64
	}
	e := &Engine{enc: enc, tok: tok, cfg: cfg}
	if cfg.Precision.Low() {
		// Quantize the frozen weights once, up front: scoring never pays
		// conversion cost.
		enc.Lowered()
	} else if !cfg.Precision.Valid() {
		panic(fmt.Sprintf("tuning: unknown engine precision %q", cfg.Precision))
	}
	e.pool.New = func() any {
		return model.NewInferScratchPrec(enc.Config(), cfg.BatchTokens, cfg.Precision)
	}
	if cfg.CacheLines > 0 {
		e.memo = newLRUCache(cfg.CacheLines)
	}
	return e
}

// Precision reports the engine's serve-path arithmetic rung.
func (e *Engine) Precision() model.Precision { return e.cfg.Precision }

// WithPrecision returns a fresh engine over the same frozen encoder and
// tokenizer with the same configuration except the precision rung — the
// construction serving paths use to honor a requested precision on a
// scorer whose head was trained (always) in float64. Like Clone, the new
// engine owns its scratch pool, an empty score memo, and its counters, so
// a score computed at one rung never answers for another.
func (e *Engine) WithPrecision(p model.Precision) *Engine {
	cfg := e.cfg
	cfg.Precision = p
	return NewEngine(e.enc, e.tok, cfg)
}

// Clone returns a fresh engine over the same frozen encoder and tokenizer
// with the same configuration. The clone shares only the immutable
// backbone weights; its scratch pool, score memo, and counters are its
// own, so clones scale across shards without contending on mutable state.
// Replica memory cost is the scratch arenas plus up to CacheLines memo
// entries — the model weights are never duplicated.
func (e *Engine) Clone() *Engine {
	return NewEngine(e.enc, e.tok, e.cfg)
}

// CacheStats is a snapshot of an engine's score-memo counters. Hits and
// Misses count memo probes of distinct inputs (a within-call duplicate
// never probes); Entries is the live entry count; Declined counts missed
// inputs whose scores the admission filter kept out of a full memo.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
	Declined int64 `json:"declined"`

	// EncodedHits and EncodedMisses are always zero: the token-sequence LRU
	// they counted is gone. They stay only because the benchmark still
	// reads them, and go when a benchmark change retires its
	// tuning.encoded_hit_rate metric.
	EncodedHits   int64 `json:"encoded_hits,omitempty"`
	EncodedMisses int64 `json:"encoded_misses,omitempty"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any probe.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// CacheStats snapshots the engine's memo counters. With the memo disabled
// every probe of it counts as a miss.
func (e *Engine) CacheStats() CacheStats {
	entries, declined := e.memo.stats()
	return CacheStats{Hits: e.memoHits.Load(), Misses: e.memoMisses.Load(), Entries: entries, Declined: declined}
}

// Feature selects the backbone output a method head reads.
type Feature int

const (
	// FeatureMean is the mean-pooled embedding, f(t) of Eq. (1).
	FeatureMean Feature = iota
	// FeatureCLS is the [CLS] hidden state.
	FeatureCLS
)

// EmbedLines returns mean-pooled embeddings, one row per line — the
// engine-backed equivalent of the package-level EmbedLines. It bypasses
// the memo.
func (e *Engine) EmbedLines(lines []string) (*tensor.Matrix, error) {
	return e.run(lines, FeatureMean)
}

// CLSLines returns the [CLS] hidden states, one row per line. It bypasses
// the memo.
func (e *Engine) CLSLines(lines []string) (*tensor.Matrix, error) {
	return e.run(lines, FeatureCLS)
}

// Score returns head's score for each line, memoized by exact input. Each
// distinct input probes the memo once. The misses are embedded as feat
// through the dedup → bucket → forward path, and head scores them as one
// matrix, one row per missed input. Head must return one score per row and
// score each row independently of the others, as every method head does:
// then a memo hit is bitwise the score a recompute would give, whatever
// batch either came from. The memo holds one head's scores, so an engine
// serves one scorer; Clone and WithPrecision start an empty memo.
func (e *Engine) Score(lines []string, feat Feature, head func(*tensor.Matrix) []float64) ([]float64, error) {
	out := make([]float64, len(lines))
	first := make(map[string]int, len(lines))
	var misses, dups []int
	for i, ln := range lines {
		if _, seen := first[ln]; seen {
			dups = append(dups, i)
			continue
		}
		first[ln] = i
		if s, ok := e.memo.get(ln); ok {
			out[i] = s
			continue
		}
		misses = append(misses, i)
	}
	e.memoHits.Add(int64(len(first) - len(misses)))
	e.memoMisses.Add(int64(len(misses)))

	if len(misses) > 0 {
		sub := make([]string, len(misses))
		for m, i := range misses {
			sub[m] = lines[i]
		}
		emb, err := e.run(sub, feat)
		if err != nil {
			return nil, err
		}
		scores := head(emb)
		if len(scores) != len(sub) {
			return nil, fmt.Errorf("tuning: head returned %d scores for %d lines", len(scores), len(sub))
		}
		for m, i := range misses {
			out[i] = scores[m]
			e.memo.put(lines[i], scores[m])
		}
	}
	for _, i := range dups {
		out[i] = out[first[lines[i]]]
	}
	return out, nil
}

// normalizeLine collapses whitespace, which is exactly the equivalence the
// BPE pretokenizer induces (it splits on strings.Fields), so two lines with
// the same normalization always embed identically.
func normalizeLine(line string) string {
	return strings.Join(strings.Fields(line), " ")
}

// batchSpec is one unit of worker work: consecutive entries of the
// length-sorted line list.
type batchSpec struct {
	lo, hi int
}

func (e *Engine) run(lines []string, feat Feature) (*tensor.Matrix, error) {
	mcfg := e.enc.Config()
	// An empty request is a normal streaming event (e.g. flushing an empty
	// session window), not an error: return a 0-row matrix of the right
	// width so downstream shape arithmetic stays uniform.
	out := tensor.NewMatrix(len(lines), mcfg.Hidden)
	if len(lines) == 0 {
		return out, nil
	}

	// Dedup: identical normalized lines embed identically, so compute each
	// one once and fan the row out afterwards.
	repOf := make([]int, len(lines))
	firstOf := make(map[string]int, len(lines))
	var reps []int
	for i, ln := range lines {
		key := normalizeLine(ln)
		if j, ok := firstOf[key]; ok {
			repOf[i] = j
			continue
		}
		firstOf[key] = i
		repOf[i] = i
		reps = append(reps, i)
	}

	if err := e.computeInto(lines, reps, feat, out); err != nil {
		return nil, err
	}

	// Fan rows out to duplicates.
	for i, rep := range repOf {
		if rep != i {
			copy(out.Row(i), out.Row(rep))
		}
	}
	return out, nil
}

// computeInto tokenizes the given lines, buckets them by token length, and
// runs the batches across workers, writing rows of out in place. Lines are
// encoded upfront in parallel, so every bucketing length is exact.
func (e *Engine) computeInto(lines []string, reps []int, feat Feature, out *tensor.Matrix) error {
	mcfg := e.enc.Config()
	seqs := make([][]int, len(reps))
	e.parallel(len(reps), func(lo, hi int) {
		for m := lo; m < hi; m++ {
			seqs[m] = e.tok.EncodeForModel(lines[reps[m]], mcfg.MaxSeqLen)
		}
	})

	// Length bucketing: sorting by token count makes each batch's
	// sequences uniform, so the token budget yields evenly-sized batches
	// and worker latency stays predictable. Ties break by original order
	// to keep runs deterministic.
	order := make([]int, len(reps))
	for m := range order {
		order[m] = m
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(seqs[order[a]]) < len(seqs[order[b]])
	})

	// Greedy batch assembly under the line and token budgets.
	var batches []batchSpec
	lo, tokens := 0, 0
	for at, m := range order {
		n := len(seqs[m])
		if at > lo && (at-lo >= e.cfg.BatchLines || tokens+n > e.cfg.BatchTokens) {
			batches = append(batches, batchSpec{lo, at})
			lo, tokens = at, 0
		}
		tokens += n
	}
	batches = append(batches, batchSpec{lo, len(order)})

	// Work-stealing dispatch: batch costs differ (short-line batches hit
	// the line cap well under the token budget), so workers pull the next
	// batch from a shared counter rather than a fixed split.
	var next atomic.Int64
	return e.fanOut(len(batches), func() error {
		scratch := e.pool.Get().(*model.InferScratch)
		defer e.pool.Put(scratch)
		pooled := tensor.NewMatrix(e.cfg.BatchLines, mcfg.Hidden)
		for {
			bi := int(next.Add(1)) - 1
			if bi >= len(batches) {
				return nil
			}
			b := batches[bi]
			var batch model.Batch
			for _, m := range order[b.lo:b.hi] {
				batch.IDs = append(batch.IDs, seqs[m]...)
				batch.Lens = append(batch.Lens, len(seqs[m]))
			}
			dst := pooled
			if n := b.hi - b.lo; n > dst.Rows {
				dst = tensor.NewMatrix(n, mcfg.Hidden)
			}
			var err error
			if feat == FeatureCLS {
				err = e.enc.InferCLSInto(batch, scratch, dst, 0)
			} else {
				err = e.enc.InferEmbedInto(batch, scratch, dst, 0)
			}
			if err != nil {
				return fmt.Errorf("tuning: inference batch of %d lines: %w", b.hi-b.lo, err)
			}
			for r, m := range order[b.lo:b.hi] {
				copy(out.Row(reps[m]), dst.Row(r))
			}
		}
	})
}

// parallel splits [0, n) across the engine's workers. With one worker (or
// tiny n) it runs inline.
func (e *Engine) parallel(n int, fn func(lo, hi int)) {
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// fanOut runs min(Workers, n) copies of a self-scheduling worker loop and
// returns the first error. With one worker it runs inline.
func (e *Engine) fanOut(n int, worker func() error) error {
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return worker()
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = worker()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lruCache is the score memo: a mutex-guarded LRU from exact scorer input
// to final score, behind a TinyLFU admission filter (Einziger, Friedman &
// Manes, ACM ToS 2017). Until the memo first fills it is a plain LRU. From
// then on every access is recorded in a frequency sketch, a hit in get and
// a miss in its put, and a new key replaces the LRU tail only if the
// sketch estimates it more frequent than the tail; otherwise its score is
// declined. A line seen once then cannot push out a line that recurs. A
// nil *lruCache is a disabled memo that never hits.
type lruCache struct {
	mu       sync.Mutex
	cap      int
	items    map[string]*lruEntry
	head     *lruEntry   // most recent
	tail     *lruEntry   // least recent
	freq     *freqSketch // access frequencies; built when the memo first fills
	declined int64       // puts the admission filter refused
}

// lruEntry keeps its key's hash so that a hit, or the entry's turn as the
// tail, reads the sketch without hashing the key again. The hash rounds
// the node up to 48 bytes, the size class it had already.
type lruEntry struct {
	key        string
	hash       uint64
	score      float64
	prev, next *lruEntry
}

// newLRUCache sizes nothing up front: the map grows with the entries and
// the sketch is built on the first put into a full memo, so an engine that
// never scores (training, experiments) or never fills its memo pays no
// bytes for either.
func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, items: make(map[string]*lruEntry)}
}

// get returns the memoized score and refreshes the entry, recording the
// hit once the sketch exists.
func (c *lruCache) get(key string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.items[key]
	if !ok {
		return 0, false
	}
	if c.freq != nil {
		c.freq.add(ent.hash)
	}
	c.moveToFront(ent)
	return ent.score, true
}

// put offers score under key after a miss, recording the miss once the
// memo is full. A key already present is only refreshed: a concurrent
// caller computed the same bits. Into a full memo the key is admitted,
// replacing the least-recently-used entry, only if the sketch estimates it
// strictly more frequent than that entry.
func (c *lruCache) put(key string, score float64) {
	if c == nil {
		return
	}
	h := hashKey(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.freq == nil && len(c.items) == c.cap {
		c.freq = newFreqSketch(c.cap)
	}
	if c.freq != nil {
		c.freq.add(h)
	}
	if ent, ok := c.items[key]; ok {
		c.moveToFront(ent)
		return
	}
	if len(c.items) < c.cap {
		ent := &lruEntry{key: key, hash: h, score: score}
		c.items[key] = ent
		c.pushFront(ent)
		return
	}
	victim := c.tail
	if c.freq.estimate(h) <= c.freq.estimate(victim.hash) {
		c.declined++
		return
	}
	// The victim's node carries the newcomer: admission allocates no node.
	c.unlink(victim)
	delete(c.items, victim.key)
	victim.key, victim.hash, victim.score = key, h, score
	c.items[key] = victim
	c.pushFront(victim)
}

// stats reports the live entry count and the puts the filter declined.
func (c *lruCache) stats() (entries int, declined int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.declined
}

func (c *lruCache) pushFront(ent *lruEntry) {
	ent.prev = nil
	ent.next = c.head
	if c.head != nil {
		c.head.prev = ent
	}
	c.head = ent
	if c.tail == nil {
		c.tail = ent
	}
}

func (c *lruCache) unlink(ent *lruEntry) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		c.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		c.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

func (c *lruCache) moveToFront(ent *lruEntry) {
	if c.head == ent {
		return
	}
	c.unlink(ent)
	c.pushFront(ent)
}

// Frequency sketch geometry: four rows of 4-bit saturating counters, packed
// sixteen to a word.
const (
	sketchRows     = 4
	sketchMax      = 15
	sketchAgeEvery = 10 // recorded accesses between halvings, per memo entry
)

// freqSketch is TinyLFU's frequency estimator, a count-min sketch. Each
// row is the next power of two at or above the memo's capacity wide (at
// least 16), so a 16,384-entry memo's sketch is 4 × 16,384 × 4 bits =
// 32 KiB. Every counter is halved after sketchAgeEvery × capacity recorded
// accesses (TinyLFU's reset), so the estimates follow recent traffic.
type freqSketch struct {
	words  []uint64 // sketchRows rows of width counters each
	width  uint64   // counters per row, a power of two
	added  int      // accesses recorded since the last halving
	period int      // recorded accesses between halvings
}

func newFreqSketch(capacity int) *freqSketch {
	width := uint64(16)
	for width < uint64(capacity) {
		width <<= 1
	}
	return &freqSketch{
		words:  make([]uint64, sketchRows*width/16),
		width:  width,
		period: sketchAgeEvery * capacity,
	}
}

// sketchSeeds remix the key's hash once per row, so two keys that share a
// counter in one row rarely share it in another.
var sketchSeeds = [sketchRows]uint64{0xc3a5c85c97cb3127, 0xb492b66fbe98f273, 0x9ae16a3b2f90404f, 0xcbf29ce484222325}

// index returns the position of row r's counter for hash h among all the
// sketch's counters.
func (s *freqSketch) index(h uint64, r int) uint64 {
	x := (h + sketchSeeds[r]) * sketchSeeds[r]
	x += x >> 32
	return uint64(r)*s.width + x&(s.width-1)
}

// count returns the counter at position i.
func (s *freqSketch) count(i uint64) uint64 {
	return s.words[i/16] >> (i % 16 * 4) & sketchMax
}

// add records one occurrence of h, saturating each counter at sketchMax,
// and ages the sketch every period recorded accesses.
func (s *freqSketch) add(h uint64) {
	for r := 0; r < sketchRows; r++ {
		if i := s.index(h, r); s.count(i) < sketchMax {
			s.words[i/16] += 1 << (i % 16 * 4)
		}
	}
	if s.added++; s.added >= s.period {
		s.age()
	}
}

// estimate returns h's smallest counter: an upper bound on its recorded
// occurrences since the halvings, tight unless every row collides.
func (s *freqSketch) estimate(h uint64) uint64 {
	est := uint64(sketchMax)
	for r := 0; r < sketchRows; r++ {
		est = min(est, s.count(s.index(h, r)))
	}
	return est
}

// age halves every counter at once: shifting a word right one bit halves
// all sixteen nibbles, and the mask drops each nibble's low bit that
// shifted into its neighbour.
func (s *freqSketch) age() {
	for j := range s.words {
		s.words[j] = s.words[j] >> 1 & 0x7777777777777777
	}
	s.added = 0
}

// hashKey is 64-bit FNV-1a over the key, finished with murmur3's fmix64 so
// every output bit depends on every input byte. It is fixed, not seeded per
// process like hash/maphash, so the memo's contents are a function of its
// input sequence alone.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
