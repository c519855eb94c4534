package bpe

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The encode hot path. The original implementation kept symbols as Go
// strings and re-scanned every adjacent pair per merge (O(n²) with a string
// concatenation per merge); this one works on integer symbol IDs with a
// min-heap of merge candidates ordered by (rank, position), so each word is
// O(n log n) with zero string building. All per-word state lives in a
// pooled scratch arena and encoded words land in a bounded sharded LRU, so
// steady-state encoding through EncodeInto allocates nothing.
//
// Output equivalence with the old path is exact: the old loop applied the
// lowest-rank merge at its leftmost occurrence and rescanned; popping
// (rank, leftPos) from the heap — positions are original byte indices,
// which stay monotone along the linked list — replays the same merge order,
// and a corpus-wide golden test pins it.

// mergeVal is the compiled form of one learned merge: its priority and the
// token ID the pair fuses into.
type mergeVal struct {
	rank int32
	id   int32
}

// mergeKey packs an adjacent symbol-ID pair into one map key. Token IDs are
// bounded by the load-time vocab cap (1<<24), so 32 bits per side suffice.
func mergeKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// finalize compiles the string-keyed rank table into the integer merge
// table and resets the word cache and scratch pool. It runs after Train and
// Load (and on the seed tokenizer), so every served Tokenizer has the
// compiled tables; merges whose operands are not in the vocabulary are
// unreachable (every symbol the encoder can form is a byte or a learned
// token) and are dropped.
func (t *Tokenizer) finalize() {
	t.merges = make(map[uint64]mergeVal, len(t.ranks))
	for p, r := range t.ranks {
		a, aok := t.vocab[p.a]
		b, bok := t.vocab[p.b]
		m, mok := t.vocab[p.a+p.b]
		if !aok || !bok || !mok {
			continue
		}
		t.merges[mergeKey(int32(a), int32(b))] = mergeVal{rank: int32(r), id: int32(m)}
	}
	t.cache.Store(newWordCache(wordCacheCap))
	t.scratch = sync.Pool{New: func() any { return new(encodeScratch) }}
}

// spaceSymID is the byte symbol every non-first pre-token starts with.
const spaceSymID = int32(NumSpecials + ' ')

// heapEnt is one merge candidate: the pair's rank and the original index of
// its left symbol. The heap orders by (rank, pos); stale entries (the pair
// at pos changed or died) are rejected at pop time by re-checking the rank.
type heapEnt struct {
	rank, pos int32
}

// encodeScratch is the reusable per-word state of the merge loop: symbol
// IDs, the doubly-linked list over them, and the candidate heap. One
// scratch serves one word at a time; EncodeInto borrows one from the
// tokenizer's pool on the first cache miss of a call.
type encodeScratch struct {
	syms []int32 // symbol ID per node; -1 marks a merged-away node
	next []int32 // linked list over live nodes; -1 terminates
	prev []int32
	heap []heapEnt
}

// ensure sizes the node arrays for n symbols.
func (sc *encodeScratch) ensure(n int) {
	if cap(sc.syms) >= n {
		return
	}
	c := cap(sc.syms) * 2
	if c < n {
		c = n
	}
	if c < 64 {
		c = 64
	}
	sc.syms = make([]int32, c)
	sc.next = make([]int32, c)
	sc.prev = make([]int32, c)
}

// push adds a candidate, restoring the (rank, pos) min-heap order.
func (sc *encodeScratch) push(e heapEnt) {
	h := append(sc.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].rank < h[i].rank || (h[p].rank == h[i].rank && h[p].pos <= h[i].pos) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sc.heap = h
}

// pop removes and returns the minimum candidate.
func (sc *encodeScratch) pop() heapEnt {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && (h[l].rank < h[min].rank || (h[l].rank == h[min].rank && h[l].pos < h[min].pos)) {
			min = l
		}
		if r < len(h) && (h[r].rank < h[min].rank || (h[r].rank == h[min].rank && h[r].pos < h[min].pos)) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	sc.heap = h
	return top
}

// encodeCold runs the merge loop for one pre-token (field, optionally
// carrying its preceding space) and returns a freshly allocated ID slice
// for insertion into the word cache. Only cache misses reach here.
func (t *Tokenizer) encodeCold(sc *encodeScratch, field string, withSpace bool) []int32 {
	n := len(field)
	if withSpace {
		n++
	}
	sc.ensure(n)
	syms, next, prev := sc.syms[:n], sc.next[:n], sc.prev[:n]
	i := 0
	if withSpace {
		syms[0] = spaceSymID
		i = 1
	}
	for j := 0; j < len(field); j++ {
		syms[i] = int32(NumSpecials) + int32(field[j])
		i++
	}
	for p := 0; p < n; p++ {
		next[p] = int32(p + 1)
		prev[p] = int32(p - 1)
	}
	next[n-1] = -1

	sc.heap = sc.heap[:0]
	for p := 0; p+1 < n; p++ {
		if v, ok := t.merges[mergeKey(syms[p], syms[p+1])]; ok {
			sc.push(heapEnt{rank: v.rank, pos: int32(p)})
		}
	}
	live := n
	for len(sc.heap) > 0 {
		e := sc.pop()
		p := e.pos
		if syms[p] < 0 {
			continue // left node merged away
		}
		q := next[p]
		if q < 0 {
			continue // pair dissolved: p became the tail
		}
		v, ok := t.merges[mergeKey(syms[p], syms[q])]
		if !ok || v.rank != e.rank {
			continue // stale: the pair at pos changed since the push
		}
		// Merge q into p and relink.
		syms[p] = v.id
		syms[q] = -1
		nq := next[q]
		next[p] = nq
		if nq >= 0 {
			prev[nq] = p
		}
		live--
		// The two adjacencies the merge created are the only new candidates.
		if pp := prev[p]; pp >= 0 {
			if nv, ok := t.merges[mergeKey(syms[pp], syms[p])]; ok {
				sc.push(heapEnt{rank: nv.rank, pos: pp})
			}
		}
		if nq >= 0 {
			if nv, ok := t.merges[mergeKey(syms[p], syms[nq])]; ok {
				sc.push(heapEnt{rank: nv.rank, pos: p})
			}
		}
	}

	out := make([]int32, 0, live)
	for p := int32(0); p >= 0; p = next[p] {
		out = append(out, syms[p])
	}
	return out
}

// appendWord appends one pre-token's IDs to dst, serving from the word
// cache when possible. sc is the caller's borrowed scratch, created lazily
// on the first miss and returned unchanged otherwise.
func (t *Tokenizer) appendWord(dst []int, field string, withSpace bool, sc *encodeScratch) ([]int, *encodeScratch) {
	key := wordKey{w: field, sp: withSpace}
	cache := t.cache.Load()
	ids, ok := cache.get(key)
	if !ok {
		if sc == nil {
			sc = t.scratch.Get().(*encodeScratch)
		}
		ids = t.encodeCold(sc, field, withSpace)
		cache.put(key, ids)
	}
	for _, id := range ids {
		dst = append(dst, int(id))
	}
	return dst, sc
}

// appendEncoded tokenizes line and appends its IDs to dst, stopping early
// once at least limit IDs have been appended this call (limit < 0 disables
// the cap). Fields are iterated in place with the same Unicode-whitespace
// boundaries as strings.Fields, so no pre-token slice is ever built.
func (t *Tokenizer) appendEncoded(dst []int, line string, limit int) []int {
	start := len(dst)
	var sc *encodeScratch
	first := true
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(line[i:])
		}
		if unicode.IsSpace(r) {
			i += size
			continue
		}
		j := i + size
		for j < len(line) {
			r, size = rune(line[j]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(line[j:])
			}
			if unicode.IsSpace(r) {
				break
			}
			j += size
		}
		dst, sc = t.appendWord(dst, line[i:j], !first, sc)
		first = false
		i = j
		if limit >= 0 && len(dst)-start >= limit {
			break
		}
	}
	if sc != nil {
		t.scratch.Put(sc)
	}
	return dst
}

// Word-cache geometry: wordCacheCap bounds total entries across all shards
// (replacing the old wholesale map reset at the same size), and the shard
// count keeps concurrent encoders from serializing on one LRU mutex.
const (
	wordCacheCap    = 1 << 18
	wordCacheShards = 8
)

// wordKey identifies a cached pre-token: the field bytes plus whether the
// word carries its preceding space (the space changes the merge sequence).
// Keying on the two parts — instead of materializing " "+field — is what
// lets cache probes run without allocating.
type wordKey struct {
	w  string
	sp bool
}

// wordCache is a sharded, bounded LRU of encoded pre-tokens.
type wordCache struct {
	shards [wordCacheShards]wcShard
}

type wcShard struct {
	mu    sync.Mutex
	cap   int
	items map[wordKey]*wcEnt
	head  *wcEnt
	tail  *wcEnt
}

type wcEnt struct {
	key        wordKey
	ids        []int32
	prev, next *wcEnt
}

func newWordCache(capacity int) *wordCache {
	perShard := capacity / wordCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &wordCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[wordKey]*wcEnt)
	}
	return c
}

// shard picks the LRU shard for a key (FNV-1a over the field bytes).
func (c *wordCache) shard(key wordKey) *wcShard {
	h := uint32(2166136261)
	for i := 0; i < len(key.w); i++ {
		h ^= uint32(key.w[i])
		h *= 16777619
	}
	if key.sp {
		h ^= 1
	}
	return &c.shards[h%wordCacheShards]
}

// get returns the cached IDs (shared, read-only) and refreshes recency.
func (c *wordCache) get(key wordKey) ([]int32, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.moveToFront(ent)
	return ent.ids, true
}

// put inserts ids under key, evicting the shard's least-recently-used entry
// when full. The key's field string is cloned so a cache entry never pins
// the log line it was sliced from; ids is stored as-is and must not be
// mutated afterwards (encodeCold hands over a fresh slice).
func (c *wordCache) put(key wordKey, ids []int32) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, ok := s.items[key]; ok {
		s.moveToFront(ent)
		return
	}
	ent := &wcEnt{key: wordKey{w: strings.Clone(key.w), sp: key.sp}, ids: ids}
	s.items[ent.key] = ent
	s.pushFront(ent)
	if len(s.items) > s.cap {
		lru := s.tail
		s.unlink(lru)
		delete(s.items, lru.key)
	}
}

// len reports live entries across all shards (test hook).
func (c *wordCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.items)
		s.mu.Unlock()
	}
	return total
}

func (s *wcShard) pushFront(ent *wcEnt) {
	ent.prev = nil
	ent.next = s.head
	if s.head != nil {
		s.head.prev = ent
	}
	s.head = ent
	if s.tail == nil {
		s.tail = ent
	}
}

func (s *wcShard) unlink(ent *wcEnt) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		s.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		s.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

func (s *wcShard) moveToFront(ent *wcEnt) {
	if s.head == ent {
		return
	}
	s.unlink(ent)
	s.pushFront(ent)
}
