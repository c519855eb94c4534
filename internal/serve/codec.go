package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
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
	return appendVerdict(b, v, nil, nil)
}

// appendVerdict is AppendVerdict with two shortcuts that write the same
// bytes. A non-empty echo is the verdict's {"user":…,"time":…,"line":…
// prefix, taken from the canonical request line of the event v answers:
// AppendEvent writes that line as exactly this prefix and a closing brace.
// A non-nil scores formats the three scores through that table.
func appendVerdict(b []byte, v *stream.Verdict, echo []byte, scores *scoreTable) ([]byte, error) {
	for _, f := range [...]float64{v.LineScore, v.ContextScore, v.SessionScore} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("serve: verdict for user %q at time %d has non-finite score %v", v.User, v.Time, f)
		}
	}
	if len(echo) > 0 {
		b = append(b, echo...)
	} else {
		b = append(b, `{"user":`...)
		b = appendString(b, v.User)
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, v.Time, 10)
		b = append(b, `,"line":`...)
		b = appendString(b, v.Line)
	}
	if v.Context != "" {
		b = append(b, `,"context":`...)
		b = appendString(b, v.Context)
	}
	b = append(b, `,"line_score":`...)
	b = scores.appendFloat(b, v.LineScore)
	b = append(b, `,"context_score":`...)
	b = scores.appendFloat(b, v.ContextScore)
	b = append(b, `,"session_score":`...)
	b = scores.appendFloat(b, v.SessionScore)
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
// ev): a {"user":…,"time":…,"line":…} line is parsed by hand, anything
// else by encoding/json. It also reports whether line is canonical, the
// test ScanEvent makes: AppendEvent writes ev back as exactly line. The
// same pass that decodes the line answers that.
func DecodeEvent(line []byte, ev *stream.Event) (canonical bool, err error) {
	p := parser{b: line, ok: true}
	p.lit(`{"user":`)
	user := p.str()
	p.lit(`,"time":`)
	num := p.i
	t := p.integer(64)
	p.lit(`,"line":`)
	text := p.str()
	p.lit(`}`)
	if !p.end() {
		return false, json.Unmarshal(line, ev)
	}
	// One allocation holds both strings. It copies only the two fields,
	// so sessions and the memo that keep them never pin the whole line.
	var sb strings.Builder
	sb.Grow(len(user) + len(text))
	sb.Write(user)
	sb.Write(text)
	both := sb.String()
	*ev = stream.Event{User: both[:len(user)], Time: t, Line: both[len(user):]}
	// AppendInt writes 0, never -0.
	return !p.noncanon && (t != 0 || line[num] != '-'), nil
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

// ScanVerdictFor reports whether line (without its newline) is the
// verdict in the canonical shape AppendVerdict writes that answers event,
// a line (without its newline) AppendEvent wrote, and returns the field
// the fleet router's shadow windows need besides the event's own:
// context_score, bit-equal to what DecodeVerdict decodes. Such a verdict
// echoes the event's user, time and line in the event's own bytes, so it
// begins with event minus its closing brace: one compare checks that
// echo, and only the rest of the line is scanned. It accepts line exactly
// when DecodeVerdict does and line begins with that echo. It allocates
// nothing: the context string is validated, not unescaped, and
// line_score and session_score are range-checked from their literals.
func ScanVerdictFor(line, event []byte) (contextScore float64, ok bool) {
	if len(event) == 0 || !bytes.HasPrefix(line, event[:len(event)-1]) {
		return 0, false
	}
	p := parser{b: line, i: len(event) - 1, ok: true}
	contextScore = p.verdictTail()
	if !p.end() {
		return 0, false
	}
	return contextScore, true
}

// verdictTail consumes what follows a verdict's line field, through the
// closing brace, as DecodeVerdict accepts it, and returns context_score.
func (p *parser) verdictTail() (contextScore float64) {
	if p.opt(`,"context":`) {
		p.skipStr()
	}
	p.lit(`,"line_score":`)
	p.finite()
	p.lit(`,"context_score":`)
	contextScore = p.float()
	p.lit(`,"session_score":`)
	p.finite()
	p.lit(`,"session_lines":`)
	p.integer(strconv.IntSize)
	p.lit(`,"line_alert":`)
	p.boolean()
	p.lit(`,"session_alert":`)
	p.boolean()
	p.lit(`}`)
	return contextScore
}

// RawEvent is a request event as the fleet router carries it: its line in
// the canonical shape AppendEvent writes, forwarded to a replica byte for
// byte, with the two fields routing reads. Line and User point into the
// /score handler's chunk buffer and are valid only during the submit
// that receives them.
type RawEvent struct {
	Line []byte // the event line, without its newline
	User []byte // the user, decoded
	Time int64
	text string // the command line when it was decoded already, else ""
}

// AppendRawEvent appends ev's line as AppendEvent writes it, followed by
// its user in place of the line's newline, to text, and returns the
// extended buffer and the RawEvent that points into it.
func AppendRawEvent(text []byte, ev *stream.Event) ([]byte, RawEvent) {
	start := len(text)
	text = AppendEvent(text, ev)
	text = append(text[:len(text)-1], ev.User...)
	end := len(text) - len(ev.User)
	return text, RawEvent{Line: text[start:end], User: text[end:], Time: ev.Time, text: ev.Line}
}

// Text returns the event's command line, decoded. An event written by
// AppendRawEvent carries it already. Otherwise Line is canonical, so the
// line field comes last, its key cannot occur inside the user string
// (whose quotes are escaped), and a line string without a backslash reads
// as it is written.
func (e *RawEvent) Text() string {
	if e.text != "" {
		return e.text
	}
	const key = `,"line":"`
	i := bytes.Index(e.Line, []byte(key)) + len(key)
	if text := e.Line[i : len(e.Line)-len(`"}`)]; bytes.IndexByte(text, '\\') < 0 {
		return string(text)
	}
	p := parser{b: e.Line, i: i - 1, ok: true}
	return string(p.str())
}

// ScanEvent reports whether line (without its newline) is an event in the
// canonical shape: DecodeEvent decodes it and AppendEvent writes the
// result back as exactly line. Such a line can be forwarded as it came.
// It returns the decoded user and the time. It allocates nothing unless
// the user holds an escape (a name with a quote, a backslash, <, >, & or
// a control byte in it), whose decoded bytes it then returns in a new
// slice; otherwise user aliases line. The command line is checked, not
// decoded.
func ScanEvent(line []byte) (user []byte, t int64, ok bool) {
	p := parser{b: line, ok: true}
	p.lit(`{"user":`)
	user = p.str()
	p.lit(`,"time":`)
	num := p.i
	t = p.integer(64)
	p.lit(`,"line":`)
	p.skipStr()
	p.lit(`}`)
	// AppendInt writes 0, never -0.
	if !p.end() || p.noncanon || t == 0 && line[num] == '-' {
		return nil, 0, false
	}
	return user, t, true
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

// scoreTableBits sizes scoreTable: 2^14 slots of 32 bytes, 512 KB, well
// inside a core's L2. A replica in the memo-hit steady state repeats a few
// thousand distinct scores; fewer slots let them evict each other.
const scoreTableBits = 14

// scoreHash is the multiplier that spreads a float64's bits over the
// table's slots (Fibonacci hashing: the product's top bits pick the slot).
const scoreHash = 0x9e3779b97f4a7c15

// scoreTable is a direct-mapped table of appendFloat's output keyed by the
// float64's bits, so a score that recurs is formatted once and copied
// after. A memo hit returns the same float64 for the same input, so on
// warm traffic the distinct scores are few. An entry only ever holds
// appendFloat's bytes for its own bits, so a hit writes what appendFloat
// would; a score that maps to a taken slot replaces its entry.
type scoreTable [1 << scoreTableBits]scoreEntry

type scoreEntry struct {
	bits uint64
	n    uint8 // len(text) in use; 0 marks an empty slot
	text [23]byte
}

// appendFloat appends a finite f as the package's appendFloat does. A nil
// table formats it afresh; so does a table for output longer than a slot
// holds (a negative 17-digit score), which it does not keep.
func (t *scoreTable) appendFloat(b []byte, f float64) []byte {
	if t == nil {
		return appendFloat(b, f)
	}
	bits := math.Float64bits(f)
	e := &t[bits*scoreHash>>(64-scoreTableBits)]
	if e.bits == bits && e.n != 0 {
		return append(b, e.text[:e.n]...)
	}
	start := len(b)
	b = appendFloat(b, f)
	if n := len(b) - start; n <= len(e.text) {
		e.bits, e.n = bits, uint8(n)
		copy(e.text[:], b[start:])
	}
	return b
}

// ---- decoding ----

// parser walks one line in a fixed shape. The first deviation clears ok
// and every later step is a no-op, so a decoder reads as the shape it
// expects and checks ok once, at end. The string steps also note a string
// not written the way appendString writes what it decodes to.
type parser struct {
	b  []byte
	i  int
	ok bool
	// noncanon is set once a string consumed holds a raw <, > or &, a raw
	// U+2028 or U+2029, invalid UTF-8, or an escape appendString would
	// write otherwise (\/, \u0041, \u003C, \ufffd).
	noncanon bool
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
		case c < utf8.RuneSelf && htmlSafe[c]:
			i++
		case c == '"':
			p.i = i + 1
			return b[start:i]
		case c == '\\':
			return p.unquote(start, i)
		case c < ' ':
			p.ok = false
			return nil
		case c < utf8.RuneSelf:
			// <, > or &: appendString escapes it.
			p.noncanon = true
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return p.unquote(start, i)
			}
			p.noteRune(r, size)
			i += size
		}
	}
	p.ok = false
	return nil
}

// noteRune notes raw non-ASCII input appendString would write otherwise:
// invalid UTF-8 (the rune decoded from size bytes is U+FFFD, size 1), or
// U+2028 or U+2029.
func (p *parser) noteRune(r rune, size int) {
	if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
		p.noncanon = true
	}
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
			if canonEscape(b[i:]) == 0 {
				p.noncanon = true
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
			if !htmlSafe[c] {
				p.noncanon = true
			}
			t = append(t, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			p.noteRune(r, size)
			t = utf8.AppendRune(t, r)
			i += size
		}
	}
	p.ok = false
	return nil
}

// skipStr consumes a JSON string that str would accept, without decoding
// it: the same bytes fail (a control byte, a bad escape, no closing
// quote), and invalid UTF-8, which decodes to U+FFFD, passes. It notes a
// string that is not canonical as str does.
func (p *parser) skipStr() {
	if !p.ok || p.i >= len(p.b) || p.b[p.i] != '"' {
		p.ok = false
		return
	}
	b := p.b
	for i := p.i + 1; i < len(b); {
		switch c := b[i]; {
		case c < utf8.RuneSelf && htmlSafe[c]:
			i++
		case c == '"':
			p.i = i + 1
			return
		case c == '\\':
			if i+1 == len(b) {
				p.ok = false
				return
			}
			if canonEscape(b[i:]) == 0 {
				p.noncanon = true
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				// A surrogate's partner, valid or not, is checked as an
				// escape of its own, as unquote reads it.
				if getu4(b[i:]) < 0 {
					p.ok = false
					return
				}
				i += 6
			default:
				p.ok = false
				return
			}
		case c < ' ':
			p.ok = false
			return
		case c < utf8.RuneSelf:
			// <, > or &: appendString escapes it.
			p.noncanon = true
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			p.noteRune(r, size)
			i += size
		}
	}
	p.ok = false
}

// canonEscape returns the length of the escape at the start of s if it is
// the one appendString writes for the character it encodes, else 0.
func canonEscape(s []byte) int {
	if len(s) < 2 {
		return 0
	}
	switch s[1] {
	case '"', '\\', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		switch r := getu4(s); {
		case r == '\u2028' || r == '\u2029':
			return 6
		case r < 0 || r >= utf8.RuneSelf || htmlSafe[r]:
			// Not a \u escape, or a character appendString writes raw.
		case r == '"' || r == '\\' || r == '\b' || r == '\f' || r == '\n' || r == '\r' || r == '\t':
			// These have two-byte escapes.
		case s[4] == hex[r>>4] && s[5] == hex[r&0xF]:
			// Below U+0080, so s[2:4] is "00"; the rest is lower-case hex.
			return 6
		}
	}
	return 0
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
	// Up to 18 digits, with no fraction or exponent, fit 64 bits.
	d := num
	if d[0] == '-' {
		d = d[1:]
	}
	if bits == 64 && len(d) <= 18 && digits(d, 0) == len(d) {
		var n int64
		for _, c := range d {
			n = n*10 + int64(c-'0')
		}
		if len(d) < len(num) {
			n = -n
		}
		return n
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

// finite consumes a number that float would accept, without computing its
// value when the literal alone shows it is below 1e308 in magnitude:
// ParseFloat fails only on overflow (an underflow rounds to zero), so
// only a literal that might reach the float64 maximum is parsed.
func (p *parser) finite() {
	num := p.number()
	if !p.ok {
		return
	}
	// The integer part has no leading zeros, so |num| < 10^(digits+exp).
	i := 0
	if num[0] == '-' {
		i++
	}
	whole := digits(num, i) - i
	i += whole
	if i < len(num) && num[i] == '.' {
		i = digits(num, i+1)
	}
	exp := 0
	if i < len(num) {
		// An exponent; more than four digits of it is left to ParseFloat.
		i++
		neg := num[i] == '-'
		if num[i] == '+' || neg {
			i++
		}
		if len(num)-i > 4 {
			exp = math.MaxInt32
		} else {
			for _, c := range num[i:] {
				exp = exp*10 + int(c-'0')
			}
			if neg {
				exp = -exp
			}
		}
	}
	if whole+exp <= 308 {
		return
	}
	if _, err := strconv.ParseFloat(string(num), 64); err != nil {
		p.ok = false
	}
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
