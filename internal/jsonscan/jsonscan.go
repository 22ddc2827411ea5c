// Package jsonscan reads a JSON document front to back, once, over its raw
// bytes: a pull scanner for decoders that know the shape they expect and
// want the values written where they belong rather than into an interface
// tree. It checks RFC 8259 syntax itself as it goes — the caller hands it
// bytes nobody has validated — and holds encoding/json's rules wherever a
// document could tell the difference (DESIGN.md §8, "The wire grammar"):
// how member names match, what null does, which literals an integer member
// takes, how deep a value may nest. The graph decoder and the plan-request
// envelope are written on it; internal/graph/encoding_ref_test.go pins the
// pair to the encoding/json decode they replaced.
//
// Every byte of every request passes through these loops, so they do not
// allocate: errors aside, only a string token with an escape or invalid
// UTF-8 in it does, and no generator of ours writes one.
//
//mcmlint:hotpath
package jsonscan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// MaxDepth is the nesting encoding/json's scanner allows; a document deeper
// than this was rejected when encoding/json read it and still is.
const MaxDepth = 10000

// Scanner is a position in a document. The typed readers (Text, Int64, …)
// consume one member value each, and a null leaves the member unset, as in
// encoding/json; Member and Element step through the
// containers the caller Opens; Skip passes over a value of any shape.
type Scanner struct {
	data  []byte
	pos   int
	depth int    // containers open around pos, those on stack not counted
	stack []byte // Skip's open containers, innermost last: '{' or '['
}

// New returns a scanner at the start of data, which it never writes to and
// does not outlive: what Text returns may be a slice of it.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// Offset returns the number of bytes consumed, Left the number that remain.
func (s *Scanner) Offset() int { return s.pos }
func (s *Scanner) Left() int   { return len(s.data) - s.pos }

// Field returns the index in names of the member name key, or -1: the exact
// bytes first, else the name key equals under Unicode case folding — which
// is how encoding/json matched struct fields, so "ID" and "Nodes" keep
// working.
func Field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// Fail returns a syntax error at the current offset; callers use it for
// what their own grammar refuses, so that every error reads alike.
func (s *Scanner) Fail(what string) error {
	if s.pos >= len(s.data) {
		return fmt.Errorf("invalid JSON: unexpected end of input (%s)", what)
	}
	return fmt.Errorf("invalid JSON at offset %d: %s", s.pos, what)
}

// peek skips whitespace and returns the byte at pos, 0 at the end of input
// (which starts no token and closes no container). A compact document has
// no whitespace, so the byte at pos is returned without entering the loop
// (and the check inlines at every call).
func (s *Scanner) peek() byte {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return s.data[s.pos]
	}
	return s.skipSpace()
}

// skipSpace is peek's loop.
func (s *Scanner) skipSpace() byte {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
		s.pos++
	}
	return 0
}

// End requires that only whitespace is left.
func (s *Scanner) End() error {
	if s.peek() != 0 || s.pos < len(s.data) {
		return s.Fail("data after the top-level value")
	}
	return nil
}

// literal consumes the given keyword, which the caller saw the first byte of.
func (s *Scanner) literal(word string) error {
	if len(s.data)-s.pos < len(word) || string(s.data[s.pos:s.pos+len(word)]) != word {
		return s.Fail("invalid literal")
	}
	s.pos += len(word)
	return nil
}

// Null consumes a null if that is the next value. A member whose value is
// null keeps what it had, as in encoding/json.
func (s *Scanner) Null() (bool, error) {
	if s.peek() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

// Open consumes the opening bracket, '{' or '[', of a container the caller
// will step through with Member or Element; what names it in the error.
func (s *Scanner) Open(bracket byte, what string) error {
	if s.peek() != bracket {
		return s.Fail("expected " + what)
	}
	s.pos++
	s.depth++
	return nil
}

// Member advances to the next member of the object pos is inside and returns
// its name, leaving pos at the value; ok is false once the closing brace is
// consumed. first says that no member has been read yet.
func (s *Scanner) Member(first bool) (key []byte, ok bool, err error) {
	c := s.peek()
	if c == '}' {
		s.pos++
		s.depth--
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, s.Fail("expected ',' or '}' after object member")
		}
		s.pos++
		c = s.peek()
	}
	if c != '"' {
		return nil, false, s.Fail("expected a member name")
	}
	if key, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.peek() != ':' {
		return nil, false, s.Fail("expected ':' after member name")
	}
	s.pos++
	return key, true, nil
}

// MemberOf is Member for a decoder that knows the name it expects next,
// names[hint]: it also returns the index in names of the member's name, as
// Field does, or -1. When the bytes at pos are that name's member prefix —
// `"name":`, after a comma unless first, with no whitespace between — the
// member is taken without scanning its name; otherwise it is Member and
// Field. The name must be a plain token (no escape, quote or control
// character); every name a caller of ours expects is. A hint outside names
// expects nothing.
func (s *Scanner) MemberOf(first bool, names []string, hint int) (field int, key []byte, ok bool, err error) {
	if hint >= 0 && hint < len(names) {
		name, data, i := names[hint], s.data, s.pos
		if !first && i < len(data) && data[i] == ',' {
			i++
		}
		if end := i + len(name) + 1; (first || i > s.pos) && end+1 < len(data) &&
			data[i] == '"' && data[end] == '"' && data[end+1] == ':' && string(data[i+1:end]) == name {
			s.pos = end + 2
			return hint, data[i+1 : end], true, nil
		}
	}
	if key, ok, err = s.Member(first); !ok || err != nil {
		return -1, nil, ok, err
	}
	return Field(key, names), key, true, nil
}

// Element is Member for arrays: it leaves pos at the next element, or
// consumes the closing bracket and returns false.
func (s *Scanner) Element(first bool) (ok bool, err error) {
	c := s.peek()
	if c == ']' {
		s.pos++
		s.depth--
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, s.Fail("expected ',' or ']' after array element")
		}
		s.pos++
	}
	return true, nil
}

// scanString consumes the string token whose opening quote is at pos and
// reports whether its contents are its bytes: no escape, valid UTF-8.
func (s *Scanner) scanString() (plain bool, err error) {
	data := s.data
	plain, ascii := true, true
	for i := s.pos + 1; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			if !ascii && !utf8.Valid(data[s.pos+1:i]) {
				plain = false
			}
			s.pos = i + 1
			return plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				s.pos = len(data)
				return false, s.Fail("unterminated string")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(data) || !isHex(data[j]) {
						s.pos = min(j, len(data))
						return false, s.Fail("invalid \\u escape")
					}
				}
				i += 6
			default:
				s.pos = i + 1
				return false, s.Fail("invalid escape")
			}
		case c < 0x20:
			s.pos = i
			return false, s.Fail("control character in string")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	s.pos = len(data)
	return false, s.Fail("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes a string token and returns its contents: a slice of data for
// a plain token, to be copied before the caller returns. Any other token —
// escapes, surrogate pairs, invalid UTF-8 to be replaced — is handed, quotes
// included, to encoding/json, so those rules are its rules by construction;
// no generator of ours writes one.
func (s *Scanner) str() ([]byte, error) {
	start := s.pos
	plain, err := s.scanString()
	if err != nil {
		return nil, err
	}
	if plain {
		return s.data[start+1 : s.pos-1], nil
	}
	var decoded string
	if err := json.Unmarshal(s.data[start:s.pos], &decoded); err != nil {
		return nil, err
	}
	return []byte(decoded), nil
}

// Text reads a string member: null leaves it unset, any other type is an
// error.
func (s *Scanner) Text() (text []byte, set bool, err error) {
	if isNull, err := s.Null(); isNull || err != nil {
		return nil, false, err
	}
	if s.peek() != '"' {
		return nil, false, s.Fail("expected a string")
	}
	text, err = s.str()
	return text, err == nil, err
}

// digitsEnd returns the index after the run of decimal digits at data[i:].
func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// number consumes the number token at pos and reports whether it is an
// integer literal: no fraction, no exponent.
func (s *Scanner) number() (tok []byte, integer bool, err error) {
	data, i := s.data, s.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	// RFC 8259: a lone zero or a run of digits that does not start with one.
	// What follows a leading zero is the container's to reject.
	if i < len(data) && data[i] == '0' {
		i++
	} else if end := digitsEnd(data, i); end > i {
		i = end
	} else {
		s.pos = i
		return nil, false, s.Fail("expected a number")
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		integer = false
		from := i + 1
		if i = digitsEnd(data, from); i == from {
			s.pos = i
			return nil, false, s.Fail("expected digits after the decimal point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integer = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		from := i
		if i = digitsEnd(data, from); i == from {
			s.pos = i
			return nil, false, s.Fail("expected digits in the exponent")
		}
	}
	tok = data[s.pos:i]
	s.pos = i
	return tok, integer, nil
}

// Int64 reads an integer member into *dst: null leaves it as it was;
// anything but an integer literal in range — 1.0, 1e3, "3", true — is an
// error, as it was a type error to encoding/json.
func (s *Scanner) Int64(dst *int64) error {
	if s.peek() == 'n' {
		return s.literal("null")
	}
	data, i := s.data, s.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	from := i
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		if u > (math.MaxUint64-9)/10 {
			u = math.MaxUint64 // saturated: out of range whatever follows
			continue
		}
		u = u*10 + uint64(data[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	switch {
	case i == from:
		return s.Fail("expected an integer")
	case data[from] == '0' && i > from+1:
		return s.Fail("leading zero")
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return s.Fail("expected an integer, not a fraction or an exponent")
	case u > limit:
		return s.Fail("integer out of range")
	}
	s.pos = i
	if neg {
		u = -u
	}
	*dst = int64(u)
	return nil
}

// Int is Int64 within the platform's int.
func (s *Scanner) Int(dst *int) error {
	v := int64(*dst)
	if err := s.Int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return s.Fail("integer out of range")
	}
	*dst = int(v)
	return nil
}

// Uint8 is Int64 for an unsigned member: no sign (not even -0, as
// strconv.ParseUint had it) and at most 255.
func (s *Scanner) Uint8(dst *uint8) error {
	negative := s.peek() == '-'
	start := s.pos
	v := int64(*dst)
	if err := s.Int64(&v); err != nil {
		return err
	}
	if negative || v > math.MaxUint8 {
		s.pos = start
		return s.Fail("expected an integer in 0..255")
	}
	*dst = uint8(v)
	return nil
}

// Float64 reads a floating-point member into *dst: null leaves it as it was,
// a number gives strconv's value for the token, and one that overflows
// (1e999) is an error, as is any other type.
func (s *Scanner) Float64(dst *float64) error {
	if isNull, err := s.Null(); isNull || err != nil {
		return err
	}
	start := s.pos
	tok, _, err := s.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.pos = start
		return s.Fail("number out of range")
	}
	*dst = v
	return nil
}

// Skip consumes one value of any type, checking its syntax: what a member
// the caller does not know holds. Open containers are kept on s.stack, not
// the Go stack, and bounded together with the Opened ones around them at
// MaxDepth.
func (s *Scanner) Skip() error {
	s.stack = s.stack[:0]
	for {
		// pos is at a value.
		switch c := s.peek(); {
		case c == '{' || c == '[':
			if s.depth+len(s.stack) >= MaxDepth {
				return s.Fail("exceeded max depth")
			}
			s.pos++
			s.stack = append(s.stack, c)
			if next := s.peek(); next == c+2 { // '}' is '{'+2, ']' is '['+2
				break
			} else if c == '{' {
				if err := s.skipName(next); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, err := s.scanString(); err != nil {
				return err
			}
		case c == 't':
			if err := s.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := s.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := s.literal("null"); err != nil {
				return err
			}
		default:
			if _, _, err := s.number(); err != nil {
				return s.Fail("expected a value")
			}
		}
		// pos is after a value, or at the close of an empty container.
		for {
			if len(s.stack) == 0 {
				return nil
			}
			top := s.stack[len(s.stack)-1]
			c := s.peek()
			if c == top+2 {
				s.pos++
				s.stack = s.stack[:len(s.stack)-1]
				continue
			}
			if c != ',' {
				return s.Fail("expected ',' or the end of the container")
			}
			s.pos++
			if top == '{' {
				if err := s.skipName(s.peek()); err != nil {
					return err
				}
			}
			break
		}
	}
}

// Raw is Skip that returns the value's bytes, a slice of the document, for a
// member some other decoder will read.
func (s *Scanner) Raw() ([]byte, error) {
	s.peek()
	start := s.pos
	err := s.Skip()
	return s.data[start:s.pos], err
}

// skipName consumes a member name, whose first byte the caller peeked, and
// its colon.
func (s *Scanner) skipName(c byte) error {
	if c != '"' {
		return s.Fail("expected a member name")
	}
	if _, err := s.scanString(); err != nil {
		return err
	}
	if s.peek() != ':' {
		return s.Fail("expected ':' after member name")
	}
	s.pos++
	return nil
}
