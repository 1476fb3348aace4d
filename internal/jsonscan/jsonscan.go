// Package jsonscan is a cursor over a JSON document for decoders that take
// one common shape in a single pass and hand every other document to
// encoding/json.
//
// A Scanner reads a subset of JSON: objects whose keys come from a fixed
// list, exact-case and each at most once, arrays, strings of printable
// ASCII without escapes, numbers in the JSON grammar, and true and false.
// Every value it accepts is the value encoding/json decodes from the same
// bytes into a field of the matching type. Every method reports false on
// input outside the subset, leaving the cursor anywhere: a caller that sees
// false gives up on the document and decodes it with encoding/json, which
// then owns every result and every error text.
package jsonscan

import "strconv"

// Scanner is a cursor over a document's bytes.
type Scanner struct {
	b []byte
	i int
}

// New returns a scanner at the start of b.
func New(b []byte) Scanner { return Scanner{b: b} }

// Pos returns the offset of the next byte the scanner reads.
func (s *Scanner) Pos() int { return s.i }

// Object decodes an object whose keys are among keys, at most 64 of them,
// each at most once; field decodes the value of keys[key].
func (s *Scanner) Object(keys []string, field func(key int) bool) bool {
	var seen uint64
	return s.list('{', '}', func() bool {
		name, ok := s.Str()
		key := 0
		for key < len(keys) && keys[key] != string(name) {
			key++
		}
		if !ok || key == len(keys) || seen&(1<<key) != 0 || !s.eat(':') {
			return false
		}
		seen |= 1 << key
		return field(key)
	})
}

// Array decodes an array; elem decodes one element.
func (s *Scanner) Array(elem func() bool) bool { return s.list('[', ']', elem) }

// list decodes open, elements separated by commas, and close, as JSON
// lays out arrays and objects; elem decodes one element.
func (s *Scanner) list(open, close byte, elem func() bool) bool {
	if !s.eat(open) {
		return false
	}
	if s.eat(close) {
		return true
	}
	for elem() {
		if s.eat(close) {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
	return false
}

// eat skips whitespace and consumes c if it comes next.
func (s *Scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// space skips JSON's whitespace.
func (s *Scanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// Str decodes a string of printable ASCII without escapes and returns its
// bytes, which alias the document.
func (s *Scanner) Str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	j := s.i
	for j < len(s.b) && ' ' <= s.b[j] && s.b[j] <= '~' && s.b[j] != '"' && s.b[j] != '\\' {
		j++
	}
	if j == len(s.b) || s.b[j] != '"' {
		return nil, false
	}
	str := s.b[s.i:j]
	s.i = j + 1
	return str, true
}

// Bool decodes true or false.
func (s *Scanner) Bool() (bool, bool) {
	s.space()
	for _, lit := range [...]string{"false", "true"} {
		if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
			s.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// Float decodes a number as encoding/json decodes it into a float64.
func (s *Scanner) Float() (float64, bool) {
	lit, ok := s.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, ok && err == nil
}

// Int decodes a number as encoding/json decodes it into an int64: an
// integer literal in range.
func (s *Scanner) Int() (int64, bool) {
	lit, ok := s.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, ok && err == nil
}

// number scans a number in the JSON grammar,
// -?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?, and returns its literal.
func (s *Scanner) number() ([]byte, bool) {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i == s.i || b[i-1] == '-' {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); b[i-1] < '0' || b[i-1] > '9' {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// digits returns the index of the first byte from i on that is not a
// decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}
