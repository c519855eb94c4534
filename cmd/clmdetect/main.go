// Command clmdetect scores command lines for intrusion likelihood with a
// versioned scorer bundle (-bundle dir, built by clmtrain -bundle). The
// bundle carries the backbone, tokenizer, and one of the paper's detection
// heads, and its manifest alone decides what scores: the method, float64
// or int8, and the scoring cascade when the bundle carries a cascade
// section (clmtrain -cascade; batch mode then prints the per-rung split).
// No baseline log is read and no tuning runs. Lines also matched by the simulated commercial IDS rules
// are marked, showing where detection generalizes beyond them.
//
// Batch usage:
//
//	clmdetect -bundle bundle/ -input data/test.jsonl -top 20
//
// Streaming usage (-follow tails the input, scoring each line as it
// arrives through a session-aware detector; see internal/stream):
//
//	tail -F /var/log/commands.log | clmdetect -bundle bundle/ -follow \
//	          -context 3 -session-threshold 0.8
//
// -input accepts a JSONL log or a plain-text file with one command line per
// line ("-" reads from stdin). In follow mode, JSONL records supply their
// own user and timestamp; plain-text lines are attributed to -user at
// wall-clock time.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"clmids/internal/commercial"
	"clmids/internal/core"
	"clmids/internal/corpus"
	"clmids/internal/modality"
	"clmids/internal/stream"
	"clmids/internal/tuning"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clmdetect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clmdetect", flag.ContinueOnError)
	bundle := fs.String("bundle", "", "scorer bundle directory built by clmtrain -bundle (required; the manifest selects the method, precision and cascade)")
	input := fs.String("input", "-", "lines to score: JSONL, plain text, or - for stdin")
	top := fs.Int("top", 20, "how many highest-scored lines to print (batch mode)")
	modalityPin := fs.String("modality", "", "expected log modality ("+modality.FlagHelp()+"): a bundle trained for another modality is rejected; empty accepts whatever the bundle carries")
	follow := fs.Bool("follow", false, "stream mode: score lines as they arrive, with session aggregation")
	user := fs.String("user", "stdin", "user attributed to plain-text lines in follow mode")
	contextN := fs.Int("context", 1, "follow mode: session lines joined per scoring input (§IV-C)")
	aggregation := fs.String("aggregation", "decay", "follow mode session aggregation: max | mean | decay")
	lineThr := fs.Float64("line-threshold", 0, "follow mode per-line alert threshold (0 disables)")
	sessThr := fs.Float64("session-threshold", 0, "follow mode session alert threshold (0 disables)")
	idle := fs.Int64("idle-timeout", 1800, "follow mode session idle timeout in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A typoed modality fails here with the registered list, before the
	// bundle loads.
	if *modalityPin != "" {
		if err := modality.Validate(*modalityPin); err != nil {
			return err
		}
	}

	if *bundle == "" {
		return fmt.Errorf("-bundle is required: build a scorer bundle with clmtrain -bundle dir")
	}
	lb, err := core.LoadScorerBundle(*bundle)
	if err != nil {
		return err
	}
	if *modalityPin != "" {
		if err := lb.CheckModality(*modalityPin); err != nil {
			return err
		}
	}
	scorer, err := lb.Serving()
	if err != nil {
		return err
	}

	if *follow {
		agg, err := stream.ParseAggregation(*aggregation)
		if err != nil {
			return err
		}
		cfg := stream.DefaultConfig()
		cfg.ContextWindow = *contextN
		cfg.Aggregation = agg
		cfg.LineThreshold = *lineThr
		cfg.SessionThreshold = *sessThr
		cfg.IdleTimeout = *idle
		return followInput(*input, *user, stream.NewDetector(scorer, cfg), os.Stdout)
	}
	return batchDetect(scorer, commercial.Default(), lb.Manifest.Method, *input, *top)
}

// batchDetect is the one-shot mode: score everything, print the top lines.
func batchDetect(scorer tuning.Scorer, ids *commercial.IDS, method, input string, top int) error {
	lines, err := readInput(input)
	if err != nil {
		return err
	}
	if len(lines) == 0 {
		return fmt.Errorf("no input lines")
	}
	scores, err := scorer.Score(lines)
	if err != nil {
		return err
	}

	idx := make([]int, len(lines))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	n := top
	if n > len(idx) {
		n = len(idx)
	}
	fmt.Printf("top %d of %d lines by %s score:\n", n, len(lines), method)
	for r := 0; r < n; r++ {
		i := idx[r]
		flag := " "
		if ids.Match(lines[i]) != "" {
			flag = "*" // also covered by the commercial IDS rules
		}
		fmt.Printf("%3d. %10.4f %s %s\n", r+1, scores[i], flag, lines[i])
	}
	fmt.Println("(* = also flagged by the simulated commercial IDS)")
	if cs, ok := scorer.(tuning.CascadeStatser); ok {
		st := cs.CascadeStats()
		fmt.Printf("cascade rungs: %d int8-triaged, %d f64-confirmed\n", st.Triaged, st.Escalated)
	}
	return nil
}

// followInput tails the input through the session-aware detector, printing
// one verdict line per event as it arrives.
func followInput(path, user string, det *stream.Detector, w io.Writer) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo, processed := 0, 0
	jsonl, first := false, true
	for sc.Scan() {
		lineNo++
		text := strings.TrimRight(sc.Text(), "\r")
		if strings.TrimSpace(text) == "" {
			continue
		}
		if first {
			jsonl = strings.HasPrefix(strings.TrimSpace(text), "{")
			first = false
		}
		ev := stream.Event{User: user, Time: time.Now().Unix(), Line: text}
		if jsonl {
			// Lenient parse, matching clmserve's /score: any NDJSON with a
			// "line" field works (corpus records verbatim, live logs
			// without ground-truth labels); missing user/time default.
			var rec stream.Event
			if err := json.Unmarshal([]byte(text), &rec); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if rec.Line == "" {
				return fmt.Errorf("line %d: record has no command line", lineNo)
			}
			if rec.User != "" {
				ev.User = rec.User
			}
			if rec.Time != 0 {
				ev.Time = rec.Time
			}
			ev.Line = rec.Line
		}
		vs, err := det.Process([]stream.Event{ev})
		if err != nil {
			return err
		}
		v := vs[0]
		mark := " "
		switch {
		case v.SessionAlert && v.LineAlert:
			mark = "!"
		case v.SessionAlert:
			mark = "S" // the session, not the line alone, crossed the bar
		case v.LineAlert:
			mark = "L"
		}
		ctx := ""
		if v.Context != "" {
			ctx = fmt.Sprintf(" ctx=%.4f", v.ContextScore)
		}
		fmt.Fprintf(w, "%s line=%.4f%s session=%.4f (%d lines) %s %s\n",
			mark, v.LineScore, ctx, v.SessionScore, v.SessionLines, v.User, v.Line)
		processed++
		if processed%1024 == 0 {
			det.EvictIdle(ev.Time)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	st := det.Stats()
	fmt.Fprintf(w, "-- %d events, %d line alerts, %d session alerts, %d sessions --\n",
		st.Events, st.LineAlerts, st.SessionAlerts, st.SessionsStarted)
	return nil
}

// readInput accepts JSONL (detected by a leading '{'), plain text, or "-"
// for stdin. JSONL is parsed in a single pass, so malformed records are
// reported with their true line numbers.
func readInput(path string) ([]string, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	br := bufio.NewReaderSize(r, 64*1024)
	if looksJSONL(br) {
		ds, err := corpus.ReadJSONL(br)
		if err != nil {
			return nil, err
		}
		return ds.Lines(), nil
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var lines []string
	for sc.Scan() {
		text := strings.TrimRight(sc.Text(), "\r")
		if strings.TrimSpace(text) == "" {
			continue
		}
		lines = append(lines, text)
	}
	return lines, sc.Err()
}

// looksJSONL peeks at the buffered head without consuming it and reports
// whether the first non-whitespace byte is '{'.
func looksJSONL(br *bufio.Reader) bool {
	head, _ := br.Peek(br.Size())
	for _, b := range head {
		switch b {
		case ' ', '\t', '\r', '\n':
		default:
			return b == '{'
		}
	}
	return false
}
