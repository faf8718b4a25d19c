package cfix

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// A session answer carries every finding and site of the unit on every
// edit, so the client decodes about 125 KB per keystroke-sized edit.
// encoding/json spends most of a warm edit's client time on that
// through reflection. decodeSessionResponse reads the canonical form
// cfixd writes in one pass instead, and hands anything else to
// encoding/json, so its result is encoding/json's by construction.

// decodeSessionResponse decodes a session open or edit answer into out.
func decodeSessionResponse(data []byte, out *SessionResponse) error {
	if r, ok := decodeSessionFast(data); ok {
		*out = r
		return nil
	}
	var r SessionResponse
	err := json.Unmarshal(data, &r)
	*out = r
	return err
}

// decodeSessionFast is the one-pass path. It reads what cfixd's encoder
// writes for a SessionResponse: each object's known keys, exact and in
// field order (omitted ones missing), and every escape encoding/json
// writes in a string. It reports false, and the caller falls back, on
// anything else: a key out of order, repeated, unknown, escaped or in
// another case; a null or mistyped field value; a number that is not
// an int literal; a surrogate escape; invalid UTF-8 or a control byte
// in a string; any syntax error; and trailing bytes.
func decodeSessionFast(data []byte) (SessionResponse, bool) {
	d := sessionDecoder{src: data, seen: make(map[string]string, 256)}
	var r SessionResponse
	ok := d.object(responseKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			r.SessionID, ok = d.str()
		case 1:
			r.Filename, ok = d.str()
		case 2:
			r.Findings, ok = decodeArray(&d, d.finding)
		case 3:
			r.Sites, ok = decodeArray(&d, d.site)
		case 4:
			r.FuncsReanalyzed, ok = d.int()
		case 5:
			r.FuncsReused, ok = d.int()
		}
		return ok
	})
	d.ws()
	return r, ok && d.i == len(d.src)
}

// Each object's keys, in the order the cases of its decoder number them.
var (
	responseKeys = []string{"session_id", "filename", "findings", "sites", "funcs_reanalyzed", "funcs_reused"}
	findingKeys  = []string{"file", "line", "col", "cwe", "cwe_name", "severity", "function", "object",
		"message", "fix", "guard", "contexts", "degraded", "extent_pos", "extent_end"}
	siteKeys = []string{"kind", "function", "name", "safe_name", "extent_pos", "extent_end", "eligible", "reason"}
)

type sessionDecoder struct {
	src []byte
	i   int
	// seen holds the answer's one copy of each string, so the file,
	// CWE name, severity, fix text, kind and reason that hundreds of
	// findings and sites repeat are one allocation each.
	seen map[string]string
}

func (d *sessionDecoder) finding(f *SessionFindingJSON) bool {
	return d.object(findingKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			f.File, ok = d.str()
		case 1:
			f.Line, ok = d.int()
		case 2:
			f.Col, ok = d.int()
		case 3:
			f.CWE, ok = d.int()
		case 4:
			f.CWEName, ok = d.str()
		case 5:
			f.Severity, ok = d.str()
		case 6:
			f.Function, ok = d.str()
		case 7:
			f.Object, ok = d.str()
		case 8:
			f.Message, ok = d.str()
		case 9:
			f.Fix, ok = d.str()
		case 10:
			f.Guard, ok = d.str()
		case 11:
			f.Contexts, ok = decodeArray(d, func(s *string) (ok bool) {
				*s, ok = d.str()
				return ok
			})
		case 12:
			f.Degraded, ok = d.bool()
		case 13:
			f.ExtentPos, ok = d.int()
		case 14:
			f.ExtentEnd, ok = d.int()
		}
		return ok
	})
}

func (d *sessionDecoder) site(s *SessionSiteJSON) bool {
	return d.object(siteKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			s.Kind, ok = d.str()
		case 1:
			s.Function, ok = d.str()
		case 2:
			s.Name, ok = d.str()
		case 3:
			s.SafeName, ok = d.str()
		case 4:
			s.ExtentPos, ok = d.int()
		case 5:
			s.ExtentEnd, ok = d.int()
		case 6:
			s.Eligible, ok = d.bool()
		case 7:
			s.Reason, ok = d.str()
		}
		return ok
	})
}

// ws skips JSON whitespace.
func (d *sessionDecoder) ws() {
	for d.i < len(d.src) {
		switch d.src[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *sessionDecoder) eat(c byte) bool {
	if d.i < len(d.src) && d.src[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads one object whose keys are among keys and in their
// order, calling field with a key's index to decode its value. Keys
// only ever move forward, so none can repeat.
func (d *sessionDecoder) object(keys []string, field func(k int) bool) bool {
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	next := 0
	for {
		d.ws()
		key, ok := d.key()
		d.ws()
		if !ok || !d.eat(':') {
			return false
		}
		d.ws()
		k := next
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if k == len(keys) || !field(k) {
			return false
		}
		next = k + 1
		d.ws()
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// plain marks the bytes a string may hold without a closer look: all
// but the quote, the backslash, control bytes and non-ASCII bytes.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// key reads an object key: plain bytes only, which is all cfixd writes.
func (d *sessionDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.src) && plain[d.src[d.i]] {
		d.i++
	}
	return d.src[start:d.i], d.eat('"')
}

// decodeArray reads an array whose elements elem decodes in place. An
// empty array is an empty, non-nil slice, as encoding/json makes it.
func decodeArray[T any](d *sessionDecoder, elem func(*T) bool) ([]T, bool) {
	if !d.eat('[') {
		return nil, false
	}
	out := []T{}
	d.ws()
	if d.eat(']') {
		return out, true
	}
	var zero T
	for {
		d.ws()
		out = append(out, zero)
		if !elem(&out[len(out)-1]) {
			return nil, false
		}
		d.ws()
		if !d.eat(',') {
			return out, d.eat(']')
		}
	}
}

// str reads a string and returns the answer's one copy of it.
func (d *sessionDecoder) str() (string, bool) {
	b, ok := d.bytes()
	if !ok {
		return "", false
	}
	if s, ok := d.seen[string(b)]; ok {
		return s, true
	}
	s := string(b)
	d.seen[s] = s
	return s, true
}

// bytes reads a string and returns its decoded bytes, a slice of the
// input when it has no escapes.
func (d *sessionDecoder) bytes() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for d.i < len(d.src) {
		if plain[d.src[d.i]] {
			d.i++
			continue
		}
		switch c := d.src[d.i]; {
		case c == '"':
			raw := d.src[start:d.i]
			d.i++
			return raw, ascii || utf8.Valid(raw)
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return nil, false
		}
		ascii = false
		d.i++
	}
	return nil, false
}

// unescape finishes a string that has escapes, from its first byte at
// start; the decoder stands at the first backslash.
func (d *sessionDecoder) unescape(start int) ([]byte, bool) {
	buf := make([]byte, 0, 2*(d.i-start)+16)
	buf = append(buf, d.src[start:d.i]...)
	for d.i < len(d.src) {
		c := d.src[d.i]
		switch {
		case c == '"':
			d.i++
			return buf, utf8.Valid(buf)
		case c < 0x20:
			return nil, false
		case c != '\\':
			buf = append(buf, c)
			d.i++
			continue
		}
		if d.i+1 >= len(d.src) {
			return nil, false
		}
		d.i += 2
		switch e := d.src[d.i-1]; e {
		case '"', '\\', '/':
			buf = append(buf, e)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := d.hex4()
			if !ok || 0xd800 <= r && r < 0xe000 {
				return nil, false
			}
			buf = utf8.AppendRune(buf, r)
		default:
			return nil, false
		}
	}
	return nil, false
}

// hex4 reads the four hex digits of a \u escape.
func (d *sessionDecoder) hex4() (rune, bool) {
	if d.i+4 > len(d.src) {
		return 0, false
	}
	var r rune
	for _, c := range d.src[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r, true
}

// int reads an int literal, -?(0|[1-9][0-9]*), that fits an int. A
// fraction or exponent after it is left unread, so the caller fails.
func (d *sessionDecoder) int() (int, bool) {
	start, i, s := d.i, d.i, d.src
	if i < len(s) && s[i] == '-' {
		i++
	}
	digits := i
	if i < len(s) && s[i] == '0' {
		i++
	} else {
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
	}
	if i == digits {
		return 0, false
	}
	d.i = i
	n, err := strconv.Atoi(string(s[start:i]))
	return n, err == nil
}

func (d *sessionDecoder) bool() (bool, bool) {
	if d.literal("true") {
		return true, true
	}
	return false, d.literal("false")
}

// literal consumes word if the input continues with it.
func (d *sessionDecoder) literal(word string) bool {
	if len(d.src)-d.i >= len(word) && string(d.src[d.i:d.i+len(word)]) == word {
		d.i += len(word)
		return true
	}
	return false
}
