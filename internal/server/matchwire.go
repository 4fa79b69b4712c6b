package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"videodb/internal/core"
)

// AppendMatches appends ms to dst as the JSON array encoding/json
// writes for the same matches as []MatchJSON, without the encoder's
// trailing newline. Feature values are finite: the database refuses
// any other at import.
func AppendMatches(dst []byte, ms []core.Match) []byte {
	dst = append(dst, '[')
	for i := range ms {
		e := &ms[i].Entry
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"clip":`...), e.Clip)
		dst = strconv.AppendInt(append(dst, `,"shot":`...), int64(e.Shot), 10)
		dst = strconv.AppendInt(append(dst, `,"start":`...), int64(e.Start), 10)
		dst = strconv.AppendInt(append(dst, `,"end":`...), int64(e.End), 10)
		dst = appendFloat(append(dst, `,"varBA":`...), e.VarBA)
		dst = appendFloat(append(dst, `,"varOA":`...), e.VarOA)
		dst = appendFloat(append(dst, `,"dv":`...), e.Dv())
		if n := ms[i].Scene; n != nil {
			// scenetree.Node.Name's "SN_<shot+1>^<level>", without fmt.
			dst = strconv.AppendInt(append(dst, `,"scene":"SN_`...), int64(n.Shot+1), 10)
			dst = append(strconv.AppendInt(append(dst, '^'), int64(n.Level), 10), '"')
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendString appends s quoted as encoding/json quotes it. Printable
// ASCII that HTML escaping leaves alone is copied; any other string
// goes through json.Marshal, which writes the escapes.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f formatted as encoding/json formats a float64:
// the shortest round-tripping decimal, in exponent form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent written without its
// leading zero.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// matchBytes presizes an answer: about one match object's length.
const matchBytes = 160

// writeMatches answers 200 with ms as a JSON array.
func writeMatches(w http.ResponseWriter, ms []core.Match) {
	WriteJSONBody(w, append(AppendMatches(make([]byte, 0, matchBytes*len(ms)+3), ms), '\n'))
}

// WriteJSONBody answers 200 with body, a complete JSON document, in one
// write with its Content-Length: every match answer, node and coordinator.
func WriteJSONBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// RawMatch is one match of a node's answer as the coordinator relays
// it: the match object's bytes, and the members the merge orders by.
type RawMatch struct {
	JSON         []byte
	Clip         string
	Shot         int
	VarBA, VarOA float64
}

// ScanMatches reads a node's match array. It accepts exactly what
// AppendMatches writes (any JSON number, escaped strings, scene
// optional) plus the encoder's newline. Each RawMatch.JSON aliases body;
// numbers parse as encoding/json parses them, so keys are bit-identical.
func ScanMatches(body []byte) ([]RawMatch, error) {
	s := scanner{b: body}
	if ms := s.matches(); s.end() == nil {
		return ms, nil
	}
	return nil, s.err
}

// ScanBatch reads a node's POST /api/query/batch answer, one match
// list per query; a null list reads as empty. It accepts what
// ScanMatches accepts inside {"results":[…]}.
func ScanBatch(body []byte) ([][]RawMatch, error) {
	s := scanner{b: body}
	var lists [][]RawMatch
	if s.lit(`{"results":[`); !s.take("]") {
		for ok := true; ok; ok = s.take(",") {
			if s.take("null") {
				lists = append(lists, nil)
			} else {
				lists = append(lists, s.matches())
			}
		}
		s.lit("]")
	}
	if s.lit("}"); s.end() == nil {
		return lists, nil
	}
	return nil, s.err
}

// scanner reads the match grammar from b at i. The first failure
// sticks in err, and every later step is then a no-op.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("match wire: %s at byte %d", what, s.i)
	}
}

// take consumes lit if the input continues with it.
func (s *scanner) take(lit string) bool {
	if s.err != nil || len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// lit consumes lit or fails.
func (s *scanner) lit(lit string) {
	if !s.take(lit) {
		s.fail("want " + strconv.Quote(lit))
	}
}

// end accepts the encoder's newline and then the end of the input, and
// returns the scan's error.
func (s *scanner) end() error {
	if s.take("\n"); s.err == nil && s.i != len(s.b) {
		s.fail("trailing bytes")
	}
	return s.err
}

func (s *scanner) matches() (ms []RawMatch) {
	if s.lit("["); s.take("]") {
		return nil
	}
	for ok := true; ok; ok = s.take(",") {
		ms = append(ms, s.match())
	}
	s.lit("]")
	return ms
}

// match consumes one match object; each member is its key, as
// AppendMatches writes it, then its value.
func (s *scanner) match() RawMatch {
	start := s.i
	m := RawMatch{Clip: s.str(`{"clip":`, true), Shot: s.integer(`,"shot":`)}
	s.integer(`,"start":`)
	s.integer(`,"end":`)
	m.VarBA, m.VarOA = s.float(`,"varBA":`), s.float(`,"varOA":`)
	if s.float(`,"dv":`); s.take(`,"scene":`) {
		s.str("", false)
	}
	s.lit("}")
	m.JSON = s.b[start:s.i:s.i]
	return m
}

// str consumes key and one string and, if keep is set, returns the
// string's value. Printable ASCII without escapes is its own value.
func (s *scanner) str(key string, keep bool) string {
	if s.lit(key); !s.take(`"`) {
		s.fail("want a string")
		return ""
	}
	start, plain := s.i-1, true
	for i := s.i; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			if !plain {
				return s.unquote(s.b[start:s.i])
			} else if keep {
				return string(s.b[start+1 : i])
			}
			return ""
		case c == '\\':
			plain = false
			i++ // an escaped byte never ends the string
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.fail("unterminated string")
	return ""
}

// unquote decodes a string that is not plain: it must be valid UTF-8,
// and encoding/json checks and decodes it.
func (s *scanner) unquote(span []byte) string {
	var v string
	if !utf8.Valid(span) || json.Unmarshal(span, &v) != nil {
		s.fail("malformed string")
	}
	return v
}

// number consumes key and one JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (s *scanner) number(key string) []byte {
	s.lit(key)
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := i < len(b) && '0' <= b[i] && b[i] <= '9'
	if ok && b[i] == '0' {
		i++
	} else {
		i = digits(b, i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i = digits(b, i+1)
		ok = '0' <= b[i-1] && b[i-1] <= '9'
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = digits(b, i)
		ok = '0' <= b[i-1] && b[i-1] <= '9'
	}
	if !ok || s.err != nil {
		s.fail("want a number")
		return nil
	}
	start := s.i
	s.i = i
	return b[start:i]
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes key and a number that encoding/json decodes into an
// int: no fraction, no exponent, in range.
func (s *scanner) integer(key string) int {
	v, err := strconv.Atoi(string(s.number(key)))
	if err != nil {
		s.fail("want an integer")
	}
	return v
}

// float consumes key and a number within float64's range.
func (s *scanner) float(key string) float64 {
	v, err := strconv.ParseFloat(string(s.number(key)), 64)
	if err != nil {
		s.fail("number out of range")
	}
	return v
}
