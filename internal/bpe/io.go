package bpe

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The on-disk format is line-oriented and uses Go quoting so that arbitrary
// byte sequences survive the round trip (JSON would mangle non-UTF-8 bytes):
//
//	clmids-bpe v1
//	vocab <n>
//	"<token>"            (n lines, in ID order)
//	merges <m>
//	"<a>" "<b>"          (m lines, in rank order)

const formatHeader = "clmids-bpe v1"

// Save writes the tokenizer to w in the versioned text format.
func (t *Tokenizer) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, formatHeader)
	fmt.Fprintf(bw, "vocab %d\n", len(t.inv))
	for _, tok := range t.inv {
		fmt.Fprintln(bw, strconv.Quote(tok))
	}
	merges := make([]pair, len(t.ranks))
	for p, r := range t.ranks {
		merges[r] = p
	}
	fmt.Fprintf(bw, "merges %d\n", len(merges))
	for _, p := range merges {
		fmt.Fprintf(bw, "%s %s\n", strconv.Quote(p.a), strconv.Quote(p.b))
	}
	return bw.Flush()
}

// Load reads a tokenizer previously written by Save.
func Load(r io.Reader) (*Tokenizer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	read := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}

	line, err := read()
	if err != nil {
		return nil, fmt.Errorf("bpe: reading header: %w", err)
	}
	if line != formatHeader {
		return nil, fmt.Errorf("bpe: bad header %q", line)
	}

	line, err = read()
	if err != nil {
		return nil, fmt.Errorf("bpe: reading vocab size: %w", err)
	}
	var n int
	if _, err := fmt.Sscanf(line, "vocab %d", &n); err != nil {
		return nil, fmt.Errorf("bpe: bad vocab line %q: %w", line, err)
	}
	if n < baseVocab || n > 1<<24 {
		return nil, fmt.Errorf("bpe: implausible vocab size %d", n)
	}

	t := &Tokenizer{
		vocab: make(map[string]int, n),
		inv:   make([]string, 0, n),
		ranks: make(map[pair]int),
	}
	for i := 0; i < n; i++ {
		line, err = read()
		if err != nil {
			return nil, fmt.Errorf("bpe: reading token %d: %w", i, err)
		}
		tok, err := strconv.Unquote(line)
		if err != nil {
			return nil, fmt.Errorf("bpe: bad token line %q: %w", line, err)
		}
		t.vocab[tok] = len(t.inv)
		t.inv = append(t.inv, tok)
	}

	line, err = read()
	if err != nil {
		return nil, fmt.Errorf("bpe: reading merge count: %w", err)
	}
	var m int
	if _, err := fmt.Sscanf(line, "merges %d", &m); err != nil {
		return nil, fmt.Errorf("bpe: bad merges line %q: %w", line, err)
	}
	for i := 0; i < m; i++ {
		line, err = read()
		if err != nil {
			return nil, fmt.Errorf("bpe: reading merge %d: %w", i, err)
		}
		a, b, err := splitQuotedPair(line)
		if err != nil {
			return nil, fmt.Errorf("bpe: bad merge line %q: %w", line, err)
		}
		t.ranks[pair{a, b}] = i
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	t.finalize()
	return t, nil
}

// splitQuotedPair parses `"a" "b"` where both halves are Go-quoted strings.
func splitQuotedPair(line string) (string, string, error) {
	line = strings.TrimSpace(line)
	if len(line) == 0 || line[0] != '"' {
		return "", "", fmt.Errorf("missing opening quote")
	}
	// Find the end of the first quoted string by scanning for an unescaped
	// quote.
	end := -1
	for i := 1; i < len(line); i++ {
		if line[i] == '\\' {
			i++
			continue
		}
		if line[i] == '"' {
			end = i
			break
		}
	}
	if end < 0 {
		return "", "", fmt.Errorf("unterminated first quote")
	}
	a, err := strconv.Unquote(line[:end+1])
	if err != nil {
		return "", "", err
	}
	rest := strings.TrimSpace(line[end+1:])
	b, err := strconv.Unquote(rest)
	if err != nil {
		return "", "", err
	}
	return a, b, nil
}

// TopTokens returns up to n longest learned tokens, longest first; useful
// for qualitative inspection of what the vocabulary captured (command names,
// flag clusters, URL fragments).
func (t *Tokenizer) TopTokens(n int) []string {
	learned := make([]string, 0, len(t.inv))
	learned = append(learned, t.inv[baseVocab:]...)
	sort.Slice(learned, func(i, j int) bool {
		if len(learned[i]) != len(learned[j]) {
			return len(learned[i]) > len(learned[j])
		}
		return learned[i] < learned[j]
	})
	if n > len(learned) {
		n = len(learned)
	}
	return learned[:n]
}
