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

// Engine is the forward-only batched inference engine: it scores command
// lines through the tape-free model.InferForward path instead of the
// autograd tape, dedupes repeated lines, buckets the remainder by token
// length into uniform batches, and fans those batches out across
// GOMAXPROCS workers, each with its own pooled scratch arena. An optional
// LRU cache keyed by the whitespace-normalized line exploits the heavy
// duplication of real command logs across calls.
//
// Below the embedding cache sits a second, cheaper LRU over encoded token
// sequences: a line whose embedding was evicted (or requested under the
// other feature kind) skips tokenization entirely. Lines missing both
// caches are encoded upfront in parallel, and their exact token counts
// drive the length bucketing.
//
// An Engine must only be used while its encoder's weights are frozen:
// cached embeddings are never invalidated. Methods are safe for concurrent
// use.
type Engine struct {
	enc *model.Encoder
	tok *bpe.Tokenizer
	cfg EngineConfig

	pool     sync.Pool          // *model.InferScratch, one per active worker
	cache    *lruCache[float64] // embedding rows; nil when disabled
	encCache *lruCache[int]     // encoded token sequences; nil when disabled

	cacheHits   atomic.Int64 // representatives served from the embedding LRU
	cacheMisses atomic.Int64 // representatives that missed the embedding LRU

	encodedHits   atomic.Int64 // embedding misses served from the encoded LRU
	encodedMisses atomic.Int64 // embedding misses that paid tokenizer cost
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
	// CacheLines enables an LRU embedding cache holding up to this many
	// normalized lines per feature kind (0 disables; negative also
	// disables).
	CacheLines int
	// EncodedCacheLines enables an LRU over encoded token sequences holding
	// up to this many normalized lines, shared by both feature kinds. The
	// zero value follows CacheLines (the encoded cache is far cheaper per
	// entry than an embedding row, so matching capacities is a safe floor);
	// negative disables.
	EncodedCacheLines int
	// Precision selects the serve-path arithmetic rung (the zero value is
	// float64, the canonical path). On the low rungs every worker scratch
	// is a float32 arena and the encoder's weights are lowered once at
	// engine construction; embeddings leaving the engine — and therefore
	// everything the LRU caches — stay canonical float64, so cache hits
	// and verdict aggregation are precision-stable.
	Precision model.Precision
}

// DefaultEngineConfig returns the deployment defaults: tape-path batch
// geometry, full-machine fan-out, and a 4096-line cache.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{BatchLines: embedBatchSize, BatchTokens: 2048, CacheLines: 4096}
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
	if cfg.EncodedCacheLines == 0 {
		cfg.EncodedCacheLines = cfg.CacheLines
	}
	if cfg.Precision == "" {
		cfg.Precision = model.PrecisionFloat64
	}
	e := &Engine{enc: enc, tok: tok, cfg: cfg}
	if cfg.Precision.Low() {
		// Lower (and on int8, quantize) the frozen weights once, up front:
		// scoring never pays conversion cost and never races on it.
		if _, err := enc.Lowered(cfg.Precision); err != nil {
			panic(fmt.Sprintf("tuning: lowering encoder to %s: %v", cfg.Precision, err))
		}
	} else if !cfg.Precision.Valid() {
		panic(fmt.Sprintf("tuning: unknown engine precision %q", cfg.Precision))
	}
	e.pool.New = func() any {
		return model.NewInferScratchPrec(enc.Config(), cfg.BatchTokens, cfg.Precision)
	}
	if cfg.CacheLines > 0 {
		e.cache = newLRUCache[float64](cfg.CacheLines)
	}
	if cfg.EncodedCacheLines > 0 {
		e.encCache = newLRUCache[int](cfg.EncodedCacheLines)
	}
	return e
}

// Precision reports the engine's serve-path arithmetic rung.
func (e *Engine) Precision() model.Precision { return e.cfg.Precision }

// WithPrecision returns a fresh engine over the same frozen encoder and
// tokenizer with the same configuration except the precision rung — the
// construction serving paths use to honor a requested precision on a
// scorer whose head was trained (always) in float64. Like Clone, the new
// engine owns its scratch pool, LRU cache, and counters.
func (e *Engine) WithPrecision(p model.Precision) *Engine {
	cfg := e.cfg
	cfg.Precision = p
	return NewEngine(e.enc, e.tok, cfg)
}

// Clone returns a fresh engine over the same frozen encoder and tokenizer
// with the same configuration. The clone shares only the immutable
// backbone weights; its scratch pool, LRU cache, and counters are its own,
// so clones scale across shards without contending on mutable state.
// Replica memory cost is the scratch arenas plus CacheLines embedding rows
// — the model weights are never duplicated.
func (e *Engine) Clone() *Engine {
	return NewEngine(e.enc, e.tok, e.cfg)
}

// CacheStats is a snapshot of an engine's LRU cache counters. Hits and
// Misses count embedding-cache probes of deduplicated representatives (a
// within-call duplicate never probes); Entries is the live entry count.
// The Encoded counters mirror them for the encoded-line LRU, which only
// representatives that missed the embedding cache ever probe.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`

	EncodedHits    int64 `json:"encoded_hits"`
	EncodedMisses  int64 `json:"encoded_misses"`
	EncodedEntries int   `json:"encoded_entries"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any probe.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// CacheStats snapshots the engine's cache counters. With a cache disabled
// every probe of it counts as a miss.
func (e *Engine) CacheStats() CacheStats {
	s := CacheStats{
		Hits: e.cacheHits.Load(), Misses: e.cacheMisses.Load(),
		EncodedHits: e.encodedHits.Load(), EncodedMisses: e.encodedMisses.Load(),
	}
	if e.cache != nil {
		s.Entries = e.cache.len()
	}
	if e.encCache != nil {
		s.EncodedEntries = e.encCache.len()
	}
	return s
}

// feature kinds for cache keys and batch dispatch.
const (
	featMean = iota // mean-pooled embedding, f(t) of Eq. (1)
	featCLS         // [CLS] hidden state
)

// EmbedLines returns mean-pooled embeddings, one row per line — the
// engine-backed equivalent of the package-level EmbedLines.
func (e *Engine) EmbedLines(lines []string) (*tensor.Matrix, error) {
	return e.run(lines, featMean)
}

// CLSLines returns the [CLS] hidden states, one row per line.
func (e *Engine) CLSLines(lines []string) (*tensor.Matrix, error) {
	return e.run(lines, featCLS)
}

// normalizeLine collapses whitespace, which is exactly the equivalence the
// BPE pretokenizer induces (it splits on strings.Fields), so two lines with
// the same normalization always embed identically.
func normalizeLine(line string) string {
	return strings.Join(strings.Fields(line), " ")
}

// batchSpec is one unit of worker work: consecutive entries of the
// length-sorted miss list.
type batchSpec struct {
	lo, hi int
}

func (e *Engine) run(lines []string, feat int) (*tensor.Matrix, error) {
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
	keys := make([]string, len(lines))
	repOf := make([]int, len(lines))
	firstOf := make(map[string]int, len(lines))
	var reps []int
	for i, ln := range lines {
		keys[i] = normalizeLine(ln)
		if j, ok := firstOf[keys[i]]; ok {
			repOf[i] = j
			continue
		}
		firstOf[keys[i]] = i
		repOf[i] = i
		reps = append(reps, i)
	}

	// Cache probe on the representatives.
	misses := reps
	if e.cache != nil {
		misses = misses[:0:0]
		for _, i := range reps {
			if row, ok := e.cache.get(cacheKey(feat, keys[i])); ok {
				copy(out.Row(i), row)
				continue
			}
			misses = append(misses, i)
		}
		e.cacheHits.Add(int64(len(reps) - len(misses)))
	}
	e.cacheMisses.Add(int64(len(misses)))

	if len(misses) > 0 {
		if err := e.computeInto(lines, keys, misses, feat, out); err != nil {
			return nil, err
		}
	}

	// Fan rows out to duplicates.
	for i, rep := range repOf {
		if rep != i {
			copy(out.Row(i), out.Row(rep))
		}
	}
	return out, nil
}

// computeInto tokenizes the missed lines, buckets them by token length,
// and runs the batches across workers, writing rows of out in place.
//
// Token sequences come from two sources. The encoded-line LRU serves
// repeat lines without touching the tokenizer; the remaining lines are
// encoded upfront in parallel, so every bucketing length is exact.
func (e *Engine) computeInto(lines, keys []string, misses []int, feat int, out *tensor.Matrix) error {
	mcfg := e.enc.Config()
	seqs := make([][]int, len(misses))

	encHits := 0
	if e.encCache != nil {
		for m := range misses {
			if seq, ok := e.encCache.get(keys[misses[m]]); ok {
				seqs[m] = seq
				encHits++
			}
		}
	}
	e.encodedHits.Add(int64(encHits))
	e.encodedMisses.Add(int64(len(misses) - encHits))

	e.parallel(len(misses), func(lo, hi int) {
		for m := lo; m < hi; m++ {
			if seqs[m] != nil {
				continue
			}
			seqs[m] = e.tok.EncodeForModel(lines[misses[m]], mcfg.MaxSeqLen)
			if e.encCache != nil {
				e.encCache.put(keys[misses[m]], seqs[m])
			}
		}
	})

	// Length bucketing: sorting by token count makes each batch's
	// sequences uniform, so the token budget yields evenly-sized batches
	// and worker latency stays predictable. Ties break by original order
	// to keep runs deterministic.
	order := make([]int, len(misses))
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
			if feat == featCLS {
				err = e.enc.InferCLSInto(batch, scratch, dst, 0)
			} else {
				err = e.enc.InferEmbedInto(batch, scratch, dst, 0)
			}
			if err != nil {
				return fmt.Errorf("tuning: inference batch of %d lines: %w", b.hi-b.lo, err)
			}
			for r, m := range order[b.lo:b.hi] {
				line := misses[m]
				copy(out.Row(line), dst.Row(r))
				if e.cache != nil {
					e.cache.put(cacheKey(feat, keys[line]), dst.Row(r))
				}
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

// cacheKey prefixes the normalized line with the feature kind so mean-pool
// and [CLS] rows never collide.
func cacheKey(feat int, norm string) string {
	if feat == featCLS {
		return "c\x00" + norm
	}
	return "m\x00" + norm
}

// lruCache is a mutex-guarded LRU over slices — embedding rows (float64)
// and encoded token sequences (int) share the one implementation.
type lruCache[E any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]*lruEntry[E]
	head  *lruEntry[E] // most recent
	tail  *lruEntry[E] // least recent
}

type lruEntry[E any] struct {
	key        string
	row        []E
	prev, next *lruEntry[E]
}

func newLRUCache[E any](capacity int) *lruCache[E] {
	return &lruCache[E]{cap: capacity, items: make(map[string]*lruEntry[E], capacity)}
}

// get returns the cached row (shared slice; callers copy or read, never
// mutate).
func (c *lruCache[E]) get(key string) ([]E, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.moveToFront(ent)
	return ent.row, true
}

// put inserts a copy of row, evicting the least-recently-used entry when
// full.
func (c *lruCache[E]) put(key string, row []E) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.items[key]; ok {
		c.moveToFront(ent)
		return
	}
	ent := &lruEntry[E]{key: key, row: append([]E(nil), row...)}
	c.items[key] = ent
	c.pushFront(ent)
	if len(c.items) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.items, lru.key)
	}
}

// len reports the live entry count (test hook).
func (c *lruCache[E]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *lruCache[E]) pushFront(ent *lruEntry[E]) {
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

func (c *lruCache[E]) unlink(ent *lruEntry[E]) {
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

func (c *lruCache[E]) moveToFront(ent *lruEntry[E]) {
	if c.head == ent {
		return
	}
	c.unlink(ent)
	c.pushFront(ent)
}
