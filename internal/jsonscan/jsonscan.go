// Package jsonscan decodes JSON held whole in memory in one pass: a
// Scanner walks a byte slice left to right, checks the grammar as it
// goes and hands each value to a typed reader that stores it in place.
// schedd's request path and the dag graph reader are built on it.
//
// The readers follow encoding/json's rules for the Go types they stand
// in for, so a decoder built on them accepts exactly what a struct
// decoded with json.Decoder accepts:
//
//   - null leaves the destination unchanged;
//   - a value of the wrong JSON kind, an integer field given a fraction,
//     an exponent or an out-of-range number, or a float out of float64
//     range is a type error (the reader reports false), and the value is
//     skipped with its syntax still checked;
//   - object keys match field names exactly first, then case-folded
//     (Lookup), and unknown keys are skipped;
//   - a syntax error anywhere stops the scan and wins over every type
//     error (Err);
//   - bytes after the top-level value are never read.
//
// Plain ASCII strings are copied out directly; a string with an escape
// or a non-ASCII byte is unquoted by encoding/json itself, so escapes,
// surrogates and invalid UTF-8 decode exactly as they always did.
// Decoded strings never alias the input.
package jsonscan

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Scanner reads one JSON value from a byte slice. Its zero value is not
// usable; create one with New.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	err   error
}

// New returns a Scanner positioned before the value in data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// Err returns the first syntax error, or nil. Once set, every reader
// is a no-op and every loop ends.
func (s *Scanner) Err() error { return s.err }

// fail records a syntax error at byte at and stops the scan.
func (s *Scanner) fail(at int, context string) {
	if s.err != nil {
		return
	}
	if at >= len(s.data) {
		s.err = errors.New("unexpected end of JSON input")
	} else {
		s.err = fmt.Errorf("invalid character %q %s at offset %d", s.data[at], context, at)
	}
	s.pos = len(s.data)
}

// at returns byte i of the input, or 0 past its end; 0 is invalid
// wherever the scanner looks, so the end of the input fails like a bad
// byte.
func (s *Scanner) at(i int) byte {
	if i < len(s.data) {
		return s.data[i]
	}
	return 0
}

// Next skips white space and returns the first byte of the next value
// without consuming it: '{', '[', '"', 't', 'f', 'n', '-' or a digit
// for a well-formed value; anything else (0 at the end of the input or
// after a syntax error) makes the next reader fail.
func (s *Scanner) Next() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// Enter consumes the opening byte of an object ('{') or array ('[') and
// reports true, or reports false and consumes nothing when the next
// value is something else.
func (s *Scanner) Enter(open byte) bool {
	if s.Next() != open {
		return false
	}
	s.pos++
	if s.depth++; s.depth > maxDepth {
		s.fail(s.pos-1, "exceeded max depth")
		return false
	}
	return true
}

// Member reads the key of member i (0, 1, ...) of the object Enter
// opened, leaving the scanner at its value, which the caller must read
// or Skip. It reports false after the closing brace or a syntax error.
// The key is unquoted; it may alias the input.
func (s *Scanner) Member(i int) (key []byte, ok bool) {
	c := s.Next()
	if c == '}' {
		s.pos++
		s.depth--
		return nil, false
	}
	if i > 0 {
		if c != ',' {
			s.fail(s.pos, "after object key:value pair")
			return nil, false
		}
		s.pos++
		c = s.Next()
	}
	if c != '"' {
		s.fail(s.pos, "looking for beginning of object key string")
		return nil, false
	}
	start := s.pos
	if s.str() {
		key = s.data[start+1 : s.pos-1]
	} else if s.err == nil {
		key = []byte(unquote(s.data[start:s.pos]))
	}
	if s.Next() != ':' {
		s.fail(s.pos, "after object key")
		return nil, false
	}
	s.pos++
	return key, true
}

// Elem reports whether the array Enter opened has an element i (0, 1,
// ...), leaving the scanner at it; the caller must read or Skip it. It
// reports false after the closing bracket or a syntax error.
func (s *Scanner) Elem(i int) bool {
	c := s.Next()
	if c == ']' {
		s.pos++
		s.depth--
		return false
	}
	if i > 0 {
		if c != ',' {
			s.fail(s.pos, "after array element")
			return false
		}
		s.pos++
	}
	return s.err == nil
}

// Skip consumes the next value, checking its syntax.
func (s *Scanner) Skip() {
	switch s.Next() {
	case '{':
		if s.Enter('{') {
			for i := 0; ; i++ {
				if _, ok := s.Member(i); !ok {
					return
				}
				s.Skip()
			}
		}
	case '[':
		if s.Enter('[') {
			for i := 0; s.Elem(i); i++ {
				s.Skip()
			}
		}
	case '"':
		s.str()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		s.number()
	default:
		s.fail(s.pos, "looking for beginning of value")
	}
}

// scalar reports whether the next value is of the kind want ('0' for a
// number, 't' for a boolean, '"' for a string), leaving it for the
// caller to read. It consumes any other value, setting *ok to true for
// null, which leaves a field unchanged, and to false for a value of the
// wrong type.
func (s *Scanner) scalar(want byte, ok *bool) bool {
	c := s.Next()
	switch {
	case c == '-' || isDigit(c):
		c = '0'
	case c == 'f':
		c = 't'
	}
	if c == want {
		return true
	}
	*ok = c == 'n'
	s.Skip()
	return false
}

// Int reads an integer into *dst as encoding/json fills an int64 (or
// 64-bit int) field. The grammar walk's mantissa is the value: a token
// with a fraction, an exponent or more than 19 digits is no int64.
func (s *Scanner) Int(dst *int64) (ok bool) {
	if !s.scalar('0', &ok) {
		return ok
	}
	tok, mant, frac := s.number()
	switch {
	case tok == nil || frac != 0:
		return false
	case tok[0] == '-' && mant <= 1<<63:
		*dst = int64(-mant)
	case tok[0] != '-' && mant <= math.MaxInt64:
		*dst = int64(mant)
	default:
		return false
	}
	return true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Float reads a number into *dst as encoding/json fills a float64
// field. A token without an exponent whose digits form a mantissa of
// at most 2^53, with at most 22 of them after the point, is that
// mantissa divided by an exact power of ten: one correctly rounded
// IEEE operation on exact operands, so the result is bit-identical to
// strconv.ParseFloat (Clinger's fast path). Every other token goes to
// strconv.
func (s *Scanner) Float(dst *float64) (ok bool) {
	if !s.scalar('0', &ok) {
		return ok
	}
	tok, mant, frac := s.number()
	if tok == nil {
		return false
	}
	if frac >= 0 && frac < len(pow10) && mant <= 1<<53 {
		f := float64(mant) / pow10[frac]
		if tok[0] == '-' {
			f = -f
		}
		*dst = f
		return true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err == nil {
		*dst = f
	}
	return err == nil
}

// Bool reads true or false into *dst as encoding/json fills a bool
// field.
func (s *Scanner) Bool(dst *bool) (ok bool) {
	if !s.scalar('t', &ok) {
		return ok
	}
	if t := s.Next() == 't'; t {
		s.literal("true")
		*dst = true
	} else {
		s.literal("false")
		*dst = false
	}
	return true
}

// String reads a string into *dst as encoding/json fills a string
// field. The result is a copy.
func (s *Scanner) String(dst *string) (ok bool) {
	if !s.scalar('"', &ok) {
		return ok
	}
	start := s.pos
	if simple := s.str(); s.err == nil {
		if simple {
			*dst = string(s.data[start+1 : s.pos-1])
		} else {
			*dst = unquote(s.data[start:s.pos])
		}
	}
	return true
}

// Lookup returns the index of the field name key selects, or -1: an
// exact match first, then a case-folded one, as encoding/json matches
// object keys to struct fields.
func Lookup(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

// strPlain marks the bytes a string may hold without an escape; the
// plain-ASCII fast path runs over them.
var strPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes the string whose opening quote is at s.pos and reports
// whether it is plain ASCII with no escapes.
func (s *Scanner) str() (simple bool) {
	simple = true
	i := s.pos + 1
	for {
		for i < len(s.data) && strPlain[s.data[i]] {
			i++
		}
		switch c := s.at(i); {
		case c == '"':
			s.pos = i + 1
			return simple
		case c == '\\':
			simple = false
			switch s.at(i + 1) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if !isHex(s.at(k)) {
						s.fail(k, "in \\u hexadecimal character escape")
						return false
					}
				}
				i += 6
			default:
				s.fail(i+1, "in string escape code")
				return false
			}
		case c >= 0x80: // valid UTF-8 or not
			simple = false
			i++
		default: // a control byte, or the end of the input
			s.fail(i, "in string literal")
			return false
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// unquote decodes a complete, grammar-checked JSON string literal with
// encoding/json's own unquoting.
func unquote(lit []byte) string {
	var out string
	if err := json.Unmarshal(lit, &out); err != nil {
		panic("jsonscan: checked string failed to unquote: " + err.Error())
	}
	return out
}

// literal consumes true, false or null.
func (s *Scanner) literal(word string) {
	for k := 0; k < len(word); k++ {
		if s.at(s.pos+k) != word[k] {
			s.fail(s.pos+k, "in literal "+word)
			return
		}
	}
	s.pos += len(word)
}

// number consumes a number token, checking it against the JSON
// grammar, and returns it (nil after a syntax error) with the value the
// walk read from it: when the token has no exponent part and at most 19
// digits, it is ±mant × 10^-frac; otherwise frac is -1.
func (s *Scanner) number() (tok []byte, mant uint64, frac int) {
	start, i := s.pos, s.pos
	digits := 0
	if s.at(i) == '-' {
		i++
	}
	switch c := s.at(i); {
	case c == '0':
		i++
		digits = 1
	case '1' <= c && c <= '9':
		i, mant, digits = s.mantissa(i, mant, digits)
	default:
		s.fail(i, "in numeric literal")
		return nil, 0, -1
	}
	if s.at(i) == '.' {
		if !isDigit(s.at(i + 1)) {
			s.fail(i+1, "after decimal point in numeric literal")
			return nil, 0, -1
		}
		j := i + 1
		i, mant, digits = s.mantissa(j, mant, digits)
		frac = i - j
	}
	if c := s.at(i); c == 'e' || c == 'E' {
		if c := s.at(i + 1); c == '+' || c == '-' {
			i++
		}
		if !isDigit(s.at(i + 1)) {
			s.fail(i+1, "in exponent of numeric literal")
			return nil, 0, -1
		}
		i = s.digits(i + 1)
		frac = -1
	}
	if digits > 19 {
		frac = -1
	}
	s.pos = i
	return s.data[start:i], mant, frac
}

// mantissa folds the run of digits at i into mant, up to its 19th
// digit, and returns the index just past the run with the new mantissa
// and digit count.
func (s *Scanner) mantissa(i int, mant uint64, digits int) (int, uint64, int) {
	for ; i < len(s.data) && isDigit(s.data[i]); i++ {
		if digits < 19 {
			mant = mant*10 + uint64(s.data[i]-'0')
		}
		digits++
	}
	return i, mant, digits
}

// digits returns the index just past the run of digits at i.
func (s *Scanner) digits(i int) int {
	for isDigit(s.at(i)) {
		i++
	}
	return i
}
