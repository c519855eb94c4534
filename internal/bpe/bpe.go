// Package bpe implements a byte-level byte-pair-encoding tokenizer for shell
// command lines, as used in the paper's pre-training stage (§II-B).
//
// The tokenizer is trained on a corpus of command lines: it starts from the
// 256 single-byte symbols (so that any input can always be encoded without
// unknown tokens) and greedily learns merge rules for the most frequent
// adjacent pairs until the requested vocabulary size is reached. Words are
// pre-tokenized GPT-2 style: a word carries its preceding space, so decoding
// is plain concatenation and Encode/Decode round-trips exactly.
//
// Token IDs 0..4 are reserved for the special tokens [PAD], [UNK], [CLS],
// [SEP] and [MASK] used by the masked-language-model objective.
package bpe

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Reserved special-token IDs.
const (
	PadID  = 0
	UnkID  = 1
	ClsID  = 2
	SepID  = 3
	MaskID = 4

	// NumSpecials is the count of reserved IDs; byte symbols start here.
	NumSpecials = 5
	// baseVocab is the size of the seed vocabulary: specials + 256 bytes.
	baseVocab = NumSpecials + 256
)

// Special-token surface forms.
const (
	PadToken  = "[PAD]"
	UnkToken  = "[UNK]"
	ClsToken  = "[CLS]"
	SepToken  = "[SEP]"
	MaskToken = "[MASK]"
)

// pair is an adjacent symbol pair considered for merging.
type pair struct {
	a, b string
}

// Tokenizer encodes command lines into token-ID sequences and back.
// A Tokenizer is safe for concurrent use once trained or loaded.
type Tokenizer struct {
	// vocab maps token surface to ID; inv is the inverse.
	vocab map[string]int
	inv   []string
	// ranks maps each learned merge to its priority (lower merges first).
	ranks map[pair]int

	// Encode hot-path state, compiled by finalize (encode.go): the
	// integer-keyed merge table, the bounded LRU of encoded pre-tokens
	// (an atomic pointer, so a reset is safe mid-serving), and
	// the pool of per-word merge-loop scratch arenas.
	merges  map[uint64]mergeVal
	cache   atomic.Pointer[wordCache]
	scratch sync.Pool
}

// seedVocab returns the seed vocabulary in ID order: the specials, then
// the 256 byte symbols.
func seedVocab() []string {
	out := make([]string, 0, baseVocab)
	out = append(out, PadToken, UnkToken, ClsToken, SepToken, MaskToken)
	for b := 0; b < 256; b++ {
		out = append(out, string([]byte{byte(b)}))
	}
	return out
}

// newSeeded returns a tokenizer holding only specials and byte symbols.
func newSeeded() *Tokenizer {
	t := &Tokenizer{
		vocab: make(map[string]int, baseVocab),
		inv:   seedVocab(),
		ranks: make(map[pair]int),
	}
	for id, s := range t.inv {
		t.vocab[s] = id
	}
	t.finalize()
	return t
}

// VocabSize returns the number of tokens, including specials.
func (t *Tokenizer) VocabSize() int { return len(t.inv) }

// NumMerges returns the number of learned merge rules.
func (t *Tokenizer) NumMerges() int { return len(t.ranks) }

// Token returns the surface form of a token ID.
func (t *Tokenizer) Token(id int) string {
	if id < 0 || id >= len(t.inv) {
		return UnkToken
	}
	return t.inv[id]
}

// ID returns the token ID for a surface form, or UnkID when absent.
func (t *Tokenizer) ID(tok string) int {
	if id, ok := t.vocab[tok]; ok {
		return id
	}
	return UnkID
}

// Pretokenize splits a line into pre-tokens. Each maximal run of
// non-whitespace bytes becomes one pre-token; every pre-token after the
// first is prefixed with a single space, so concatenating pre-tokens
// reconstructs the whitespace-normalized line.
func Pretokenize(line string) []string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	out := make([]string, len(fields))
	out[0] = fields[0]
	for i := 1; i < len(fields); i++ {
		out[i] = " " + fields[i]
	}
	return out
}

// Encode converts a line into token IDs without special tokens. The
// returned slice is the caller's to mutate; it never aliases cache state.
func (t *Tokenizer) Encode(line string) []int {
	return t.EncodeInto(nil, line)
}

// EncodeInto appends line's token IDs to dst and returns the extended
// slice — the allocation-free form of Encode. When every pre-token is
// cached and dst has capacity, the call allocates nothing; cache misses pay
// one allocation for the cached entry. Safe for concurrent use.
func (t *Tokenizer) EncodeInto(dst []int, line string) []int {
	return t.appendEncoded(dst, line, -1)
}

// EncodeForModel converts a line into the model input form
// [CLS] tokens... [SEP], truncated to maxLen total tokens (the paper trims
// command lines that exceed the maximum sequence length). maxLen values
// below 2 are clamped to 2 (a bare [CLS][SEP] frame).
func (t *Tokenizer) EncodeForModel(line string, maxLen int) []int {
	if maxLen < 2 {
		maxLen = 2
	}
	// Token count never exceeds the line's byte count (every symbol holds at
	// least one byte; a word's leading space is a line byte too), so this
	// capacity makes the single allocation exact.
	capHint := len(line) + 2
	if capHint > maxLen {
		capHint = maxLen
	}
	return t.AppendForModel(make([]int, 0, capHint), line, maxLen)
}

// AppendForModel appends the model input form [CLS] tokens... [SEP] of line
// to dst, truncated to maxLen total tokens, and returns the extended slice
// — the allocation-free form of EncodeForModel for callers with a reusable
// buffer. maxLen values below 2 are clamped to 2.
func (t *Tokenizer) AppendForModel(dst []int, line string, maxLen int) []int {
	if maxLen < 2 {
		maxLen = 2
	}
	start := len(dst)
	dst = append(dst, ClsID)
	// Encoding stops as soon as the body is full; whole cached words may
	// overshoot by a few IDs, truncated right back below.
	dst = t.appendEncoded(dst, line, maxLen-2)
	if len(dst)-start > maxLen-1 {
		dst = dst[:start+maxLen-1]
	}
	return append(dst, SepID)
}

// Decode converts token IDs back to text. Special tokens are dropped.
func (t *Tokenizer) Decode(ids []int) string {
	var b strings.Builder
	for _, id := range ids {
		if id < NumSpecials || id >= len(t.inv) {
			continue
		}
		b.WriteString(t.inv[id])
	}
	return b.String()
}

// Tokens renders each ID as its surface form; useful for debugging and for
// the qualitative analyses in §V-C.
func (t *Tokenizer) Tokens(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = t.Token(id)
	}
	return out
}

// IsSpecial reports whether the ID is one of the reserved special tokens.
func IsSpecial(id int) bool { return id >= 0 && id < NumSpecials }

// validate checks internal consistency; used after loading.
func (t *Tokenizer) validate() error {
	if len(t.inv) < baseVocab {
		return fmt.Errorf("bpe: vocabulary too small: %d < %d", len(t.inv), baseVocab)
	}
	// Encode maps byte b straight to ID NumSpecials+b, so the seed
	// vocabulary must sit at its fixed IDs.
	for i, s := range seedVocab() {
		if t.inv[i] != s {
			return fmt.Errorf("bpe: id %d is %q, want %q", i, t.inv[i], s)
		}
	}
	for i, s := range t.inv {
		if got, ok := t.vocab[s]; !ok || got != i {
			return fmt.Errorf("bpe: vocab/inv mismatch at id %d (%q)", i, s)
		}
	}
	for p := range t.ranks {
		if _, ok := t.vocab[p.a+p.b]; !ok {
			return fmt.Errorf("bpe: merge (%q,%q) has no merged token", p.a, p.b)
		}
	}
	return nil
}
