package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"clmids/internal/stream"
)

// The wire codec: hand-written NDJSON for the two records on the scoring
// path, stream.Event (requests) and stream.Verdict (responses), so neither
// the replica handler nor the fleet router reflects over a struct per line.
//
// The encoders write exactly the bytes json.Encoder.Encode writes: HTML
// characters escaped, U+FFFD for invalid UTF-8, U+2028/U+2029 escaped,
// ES6-style floats (exponent below 1e-6 and from 1e21, "e-7" not "e-07"),
// and a trailing newline. The decoders take a fast path only for a line in
// the canonical shape the encoders write (keys in struct order, no
// whitespace); every other line goes to encoding/json, so what a line
// decodes to, and the error a bad line gets, are encoding/json's. The fuzz
// targets in codec_test.go pin both contracts.

// AppendEvent appends ev as one NDJSON line, byte-identical to
// json.Encoder.Encode(ev).
func AppendEvent(b []byte, ev *stream.Event) []byte {
	b = append(b, `{"user":`...)
	b = appendString(b, ev.User)
	b = append(b, `,"time":`...)
	b = strconv.AppendInt(b, ev.Time, 10)
	b = append(b, `,"line":`...)
	b = appendString(b, ev.Line)
	return append(b, "}\n"...)
}

// AppendVerdict appends v as one NDJSON line, byte-identical to
// json.Encoder.Encode(v). JSON has no NaN or infinity: for a non-finite
// score it returns b unchanged and an error, where json.Encoder writes
// nothing and returns one.
func AppendVerdict(b []byte, v *stream.Verdict) ([]byte, error) {
	for _, f := range [...]float64{v.LineScore, v.ContextScore, v.SessionScore} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("serve: verdict for user %q at time %d has non-finite score %v", v.User, v.Time, f)
		}
	}
	b = append(b, `{"user":`...)
	b = appendString(b, v.User)
	b = append(b, `,"time":`...)
	b = strconv.AppendInt(b, v.Time, 10)
	b = append(b, `,"line":`...)
	b = appendString(b, v.Line)
	if v.Context != "" {
		b = append(b, `,"context":`...)
		b = appendString(b, v.Context)
	}
	b = append(b, `,"line_score":`...)
	b = appendFloat(b, v.LineScore)
	b = append(b, `,"context_score":`...)
	b = appendFloat(b, v.ContextScore)
	b = append(b, `,"session_score":`...)
	b = appendFloat(b, v.SessionScore)
	b = append(b, `,"session_lines":`...)
	b = strconv.AppendInt(b, int64(v.SessionLines), 10)
	b = append(b, `,"line_alert":`...)
	b = strconv.AppendBool(b, v.LineAlert)
	b = append(b, `,"session_alert":`...)
	b = strconv.AppendBool(b, v.SessionAlert)
	return append(b, "}\n"...), nil
}

// DecodeEvent decodes one NDJSON line (without its newline) into ev. The
// result and the error, text included, are those of json.Unmarshal(line,
// ev): a canonical {"user":…,"time":…,"line":…} line is parsed by hand,
// anything else by encoding/json.
func DecodeEvent(line []byte, ev *stream.Event) error {
	p := parser{b: line, ok: true}
	p.lit(`{"user":`)
	user := p.str()
	p.lit(`,"time":`)
	t := p.integer(64)
	p.lit(`,"line":`)
	text := p.str()
	p.lit(`}`)
	if !p.end() {
		return json.Unmarshal(line, ev)
	}
	*ev = stream.Event{User: string(user), Time: t, Line: string(text)}
	return nil
}

// DecodeVerdict decodes one NDJSON line (without its newline) in the
// canonical shape AppendVerdict writes and reports whether it could. On
// true, v holds what json.Unmarshal would decode into a zero Verdict. On
// false v is untouched and the line is left to encoding/json: an error
// record, or any other shape.
func DecodeVerdict(line []byte, v *stream.Verdict) bool {
	var out stream.Verdict
	p := parser{b: line, ok: true}
	p.lit(`{"user":`)
	user := p.str()
	p.lit(`,"time":`)
	out.Time = p.integer(64)
	p.lit(`,"line":`)
	text := p.str()
	var context []byte
	if p.opt(`,"context":`) {
		context = p.str()
	}
	p.lit(`,"line_score":`)
	out.LineScore = p.float()
	p.lit(`,"context_score":`)
	out.ContextScore = p.float()
	p.lit(`,"session_score":`)
	out.SessionScore = p.float()
	p.lit(`,"session_lines":`)
	out.SessionLines = int(p.integer(strconv.IntSize))
	p.lit(`,"line_alert":`)
	out.LineAlert = p.boolean()
	p.lit(`,"session_alert":`)
	out.SessionAlert = p.boolean()
	p.lit(`}`)
	if !p.end() {
		return false
	}
	out.User, out.Line, out.Context = string(user), string(text), string(context)
	*v = out
	return true
}

// ---- encoding ----

// htmlSafe marks the ASCII bytes json.Encoder copies through unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hex = "0123456789abcdef"

// appendString appends s as a JSON string literal the way encoding/json
// does with HTML escaping on (json.Encoder's default).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Other control bytes, and <, > and &.
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite f the way encoding/json formats a float64.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ---- decoding ----

// parser walks one line in a fixed shape. The first deviation clears ok
// and every later step is a no-op, so a decoder reads as the shape it
// expects and checks ok once, at end.
type parser struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes the literal s.
func (p *parser) lit(s string) {
	if !p.opt(s) {
		p.ok = false
	}
}

// opt consumes s if the input continues with it.
func (p *parser) opt(s string) bool {
	if p.ok && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// end reports whether every step matched and the input is used up.
func (p *parser) end() bool { return p.ok && p.i == len(p.b) }

// str consumes a JSON string and returns its decoded bytes, which alias
// the input when the string needs no unescaping. Anything encoding/json's
// scanner rejects (a control byte, a bad escape, no closing quote) fails.
func (p *parser) str() []byte {
	if !p.ok || p.i >= len(p.b) || p.b[p.i] != '"' {
		p.ok = false
		return nil
	}
	b := p.b
	start := p.i + 1
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return b[start:i]
		case c == '\\':
			return p.unquote(start, i)
		case c < ' ':
			p.ok = false
			return nil
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return p.unquote(start, i)
			}
			i += size
		}
	}
	p.ok = false
	return nil
}

// unquote finishes str for a string that needs rewriting from b[i] on —
// an escape, or invalid UTF-8 that decodes to U+FFFD — as encoding/json's
// unquote does it.
func (p *parser) unquote(start, i int) []byte {
	b := p.b
	t := append(make([]byte, 0, i-start+32), b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return t
		case c == '\\':
			if i+1 == len(b) {
				p.ok = false
				return nil
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				t = append(t, e)
			case 'b':
				t = append(t, '\b')
			case 'f':
				t = append(t, '\f')
			case 'n':
				t = append(t, '\n')
			case 'r':
				t = append(t, '\r')
			case 't':
				t = append(t, '\t')
			case 'u':
				r := getu4(b[i:])
				if r < 0 {
					p.ok = false
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; anything else is U+FFFD and the
					// next escape is read on its own.
					if dec := utf16.DecodeRune(r, getu4(b[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				t = utf8.AppendRune(t, r)
				continue
			default:
				p.ok = false
				return nil
			}
			i += 2
		case c < ' ':
			p.ok = false
			return nil
		case c < utf8.RuneSelf:
			t = append(t, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			t = utf8.AppendRune(t, r)
			i += size
		}
	}
	p.ok = false
	return nil
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number consumes a JSON number literal and returns its text.
func (p *parser) number() []byte {
	if !p.ok {
		return nil
	}
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		p.ok = false
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			p.ok = false
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			p.ok = false
			return nil
		}
		i = j
	}
	num := b[p.i:i]
	p.i = i
	return num
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes a number that fits a bits-wide signed integer. A fraction,
// an exponent or an overflow fails: encoding/json rejects those for an
// integer field, and the fallback reports it.
func (p *parser) integer(bits int) int64 {
	num := p.number()
	if !p.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, bits)
	if err != nil {
		p.ok = false
	}
	return n
}

// float consumes a number that parses as a float64 (out of range fails,
// as it does in encoding/json).
func (p *parser) float() float64 {
	num := p.number()
	if !p.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		p.ok = false
	}
	return f
}

// boolean consumes true or false.
func (p *parser) boolean() bool {
	if p.opt("true") {
		return true
	}
	if !p.opt("false") {
		p.ok = false
	}
	return false
}
