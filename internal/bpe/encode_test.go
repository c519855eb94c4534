package bpe

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clmids/internal/corpus"
	"clmids/internal/modality"
)

// refEncode is the original string-rescan encoder, kept verbatim as the
// golden reference for the heap-based hot path: lowest-rank merge first,
// leftmost occurrence on ties, full rescan after every merge.
func refEncode(t *Tokenizer, line string) []int {
	var out []int
	for _, word := range Pretokenize(line) {
		symbols := make([]string, 0, len(word))
		for i := 0; i < len(word); i++ {
			symbols = append(symbols, word[i:i+1])
		}
		for len(symbols) > 1 {
			best := -1
			bestRank := int(^uint(0) >> 1)
			for i := 0; i < len(symbols)-1; i++ {
				if r, ok := t.ranks[pair{symbols[i], symbols[i+1]}]; ok && r < bestRank {
					bestRank = r
					best = i
				}
			}
			if best < 0 {
				break
			}
			merged := symbols[best] + symbols[best+1]
			symbols[best] = merged
			symbols = append(symbols[:best+1], symbols[best+2:]...)
		}
		for _, s := range symbols {
			if id, ok := t.vocab[s]; ok {
				out = append(out, id)
			} else {
				out = append(out, UnkID)
			}
		}
	}
	return out
}

// modalityCorpus synthesizes train+test lines for one log modality.
func modalityCorpus(t testing.TB, name string, trainLines, testLines int) (train, test []string) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.TrainLines = trainLines
	cfg.TestLines = testLines
	cfg.Modality = name
	cfg.Seed = 42
	tr, te, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatalf("corpus.Generate(%s): %v", name, err)
	}
	return tr.Lines(), te.Lines()
}

// TestEncodeMatchesReference pins byte-identical output of the heap encoder
// against the original rescan algorithm across every supported log
// modality, on both in-vocabulary (train) and unseen (test) lines.
func TestEncodeMatchesReference(t *testing.T) {
	for _, mod := range []string{modality.Shell, modality.PowerShell, modality.Flows} {
		t.Run(mod, func(t *testing.T) {
			train, test := modalityCorpus(t, mod, 1200, 600)
			tok, err := Train(train, TrainConfig{VocabSize: 800})
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			for _, line := range append(append([]string{}, train...), test...) {
				want := refEncode(tok, line)
				got := tok.Encode(line)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("encoder diverges from reference on %q:\n new %v\n old %v", line, got, want)
				}
			}
		})
	}
}

// TestEncodeMatchesReferenceAdversarial exercises shapes the synthetic
// corpora underrepresent: long repeats, overlapping merge candidates,
// non-UTF-8 bytes, and Unicode whitespace.
func TestEncodeMatchesReferenceAdversarial(t *testing.T) {
	tok := trainSample(t, 700)
	lines := []string{
		"",
		"   ",
		"\t\n\v\f\r",
		"a",
		strings.Repeat("a", 200),
		strings.Repeat("ab", 100),
		strings.Repeat("aa ", 50),
		strings.Repeat("docker ", 30),
		"ls\u00a0-la\u2003/tmp", // Unicode spaces are field separators
		string([]byte{0xff, 0xfe, 'l', 's', 0x80}),
		"-----------------",
		"///..///..///",
		"\x00\x01\x02 ls",
	}
	for _, line := range lines {
		want := refEncode(tok, line)
		got := tok.Encode(line)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("encoder diverges from reference on %q:\n new %v\n old %v", line, got, want)
		}
	}
}

// TestEncodeOutputIsPrivate pins the satellite fix for the old cache
// aliasing bug: Encode's return is the caller's to mutate, so scribbling on
// it must not corrupt later encodes of the same line.
func TestEncodeOutputIsPrivate(t *testing.T) {
	tok := trainSample(t, 500)
	line := "docker run --rm -it ubuntu bash"
	first := tok.Encode(line)
	want := append([]int{}, first...)
	for i := range first {
		first[i] = -777
	}
	if got := tok.Encode(line); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating Encode output corrupted the cache: got %v, want %v", got, want)
	}
	// Same for the model form.
	m := tok.EncodeForModel(line, 32)
	wantM := append([]int{}, m...)
	for i := range m {
		m[i] = -777
	}
	if got := tok.EncodeForModel(line, 32); !reflect.DeepEqual(got, wantM) {
		t.Fatalf("mutating EncodeForModel output corrupted the cache: got %v, want %v", got, wantM)
	}
}

// TestEncodeForModelClamp pins the maxLen < 2 clamp: the frame tokens always
// fit.
func TestEncodeForModelClamp(t *testing.T) {
	tok := trainSample(t, 400)
	for _, maxLen := range []int{-3, 0, 1, 2} {
		ids := tok.EncodeForModel("ls -la /tmp", maxLen)
		if len(ids) != 2 || ids[0] != ClsID || ids[1] != SepID {
			t.Fatalf("EncodeForModel(maxLen=%d) = %v, want [CLS SEP]", maxLen, ids)
		}
	}
	// And the append form, on a non-empty dst.
	dst := tok.AppendForModel([]int{99}, "ls -la /tmp", 1)
	if !reflect.DeepEqual(dst, []int{99, ClsID, SepID}) {
		t.Fatalf("AppendForModel(maxLen=1) = %v, want [99 CLS SEP]", dst)
	}
}

// TestAppendForModelMatchesEncodeForModel checks the scratch-free append
// form produces the same tokens as the allocating form at every truncation
// point.
func TestAppendForModelMatchesEncodeForModel(t *testing.T) {
	tok := trainSample(t, 600)
	buf := make([]int, 0, 128)
	for _, line := range sampleCorpus {
		for maxLen := 2; maxLen <= 40; maxLen++ {
			want := tok.EncodeForModel(line, maxLen)
			buf = tok.AppendForModel(buf[:0], line, maxLen)
			if !reflect.DeepEqual(append([]int{}, buf...), want) {
				t.Fatalf("AppendForModel(%q, %d) = %v, want %v", line, maxLen, buf, want)
			}
			if len(want) > maxLen {
				t.Fatalf("EncodeForModel(%q, %d) overflows: %d tokens", line, maxLen, len(want))
			}
		}
	}
}

// TestEncodeSteadyStateAllocs pins the tentpole's zero-alloc claim: once a
// line's pre-tokens are cached and the destination has capacity, EncodeInto
// and AppendForModel allocate nothing, and EncodeForModel's only allocation
// is its return slice.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	tok := trainSample(t, 800)
	line := "docker run --rm -it -v /srv/data:/data ubuntu bash -c 'ls -la /data'"
	tok.Encode(line) // warm the word cache
	buf := make([]int, 0, 256)

	if n := testing.AllocsPerRun(100, func() { buf = tok.EncodeInto(buf[:0], line) }); n != 0 {
		t.Errorf("EncodeInto warm allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = tok.AppendForModel(buf[:0], line, 64) }); n != 0 {
		t.Errorf("AppendForModel warm allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tok.EncodeForModel(line, 64) }); n != 1 {
		t.Errorf("EncodeForModel warm allocs/op = %v, want 1 (the return slice)", n)
	}
}

// TestWordCacheBounded replaces the old wholesale-reset memory bound with a
// real LRU: the cache never exceeds its capacity and evicts least-recently
// used entries first.
func TestWordCacheBounded(t *testing.T) {
	c := newWordCache(wordCacheShards * 4) // 4 entries per shard
	for i := 0; i < 10*wordCacheShards*4; i++ {
		c.put(wordKey{w: fmt.Sprintf("w%04d", i)}, []int32{int32(i)})
	}
	if got, max := c.len(), wordCacheShards*4; got > max {
		t.Fatalf("cache holds %d entries, cap %d", got, max)
	}
}

func TestWordCacheLRUOrder(t *testing.T) {
	c := newWordCache(wordCacheShards) // 1 entry per shard
	a := wordKey{w: "alpha"}
	b := wordKey{w: "beta"}
	s := c.shard(a)
	if c.shard(b) != s {
		// Find a colliding key so both land in one single-entry shard.
		for i := 0; ; i++ {
			b = wordKey{w: fmt.Sprintf("beta%d", i)}
			if c.shard(b) == s {
				break
			}
		}
	}
	c.put(a, []int32{1})
	c.put(b, []int32{2}) // evicts a (cap 1)
	if _, ok := c.get(a); ok {
		t.Fatal("oldest entry not evicted")
	}
	if ids, ok := c.get(b); !ok || ids[0] != 2 {
		t.Fatal("newest entry lost")
	}
}

func TestResetEncodeCache(t *testing.T) {
	tok := trainSample(t, 500)
	tok.Encode("ls -la /tmp")
	if tok.cache.Load().len() == 0 {
		t.Fatal("encode did not populate the word cache")
	}
	tok.cache.Store(newWordCache(wordCacheCap))
	if n := tok.cache.Load().len(); n != 0 {
		t.Fatalf("cache holds %d entries after reset", n)
	}
	// Encoding still works and refills.
	want := refEncode(tok, "ls -la /tmp")
	if got := tok.Encode("ls -la /tmp"); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reset encode = %v, want %v", got, want)
	}
}

// TestEncodeConcurrent hammers one tokenizer from many goroutines while the
// cache is being reset; meaningful under -race (the bpe package is in the
// CI race step).
func TestEncodeConcurrent(t *testing.T) {
	tok := trainSample(t, 600)
	lines := append([]string{}, sampleCorpus...)
	want := make([][]int, len(lines))
	for i, line := range lines {
		want[i] = refEncode(tok, line)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			buf := make([]int, 0, 128)
			for iter := 0; iter < 200; iter++ {
				if g == 0 && iter%50 == 0 {
					tok.cache.Store(newWordCache(wordCacheCap))
				}
				i := (g + iter) % len(lines)
				buf = tok.EncodeInto(buf[:0], lines[i])
				if !reflect.DeepEqual(append([]int{}, buf...), want[i]) {
					done <- fmt.Errorf("goroutine %d: encode %q = %v, want %v", g, lines[i], buf, want[i])
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkEncodeUnique measures the cold path proper: every word is a cache
// miss, so the merge loop and scratch pooling dominate.
func BenchmarkEncodeUnique(b *testing.B) {
	tok := trainSample(b, 800)
	lines := make([]string, 4096)
	for i := range lines {
		lines[i] = fmt.Sprintf("cmd%04x --flag-%d /path/%d/file%d.log host%d:%d", i, i, i*7, i, i%251, 1024+i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	buf := make([]int, 0, 256)
	for i := 0; i < b.N; i++ {
		if i%len(lines) == 0 {
			tok.cache.Store(newWordCache(wordCacheCap))
		}
		buf = tok.EncodeInto(buf[:0], lines[i%len(lines)])
	}
}
