package textio

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The File field names, matched case-insensitively as encoding/json matches
// struct tags.
const (
	fieldQueries     = "queries"
	fieldCosts       = "costs"
	fieldUniformCost = "uniform_cost"
	fieldDefaultCost = "default_cost"
	fieldWeights     = "weights"
)

// arenaChunk is the number of property-name slots the decoded queries are
// carved from per allocation.
const arenaChunk = 4096

// parser decodes one File document in a single pass over its bytes. Every
// string it stores is a copy, so the File never aliases the input.
type parser struct {
	data []byte
	pos  int

	names   map[string]string // distinct property names, each allocated once
	scratch []string          // the query being decoded
	arena   []string          // storage the decoded queries are carved from
}

// costEntry is one member of a costs object. A plain key is kept as its
// byte range in the input until the object ends; any other key is decoded
// on the spot into the object's list of decoded keys, and start holds
// -1 - its index there.
type costEntry struct {
	start, end int
	cost       float64
}

// strSpecial marks the bytes that end the fast scan of a string's content:
// the closing quote, a backslash, control characters and non-ASCII bytes.
var strSpecial = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c == '"' || c == '\\' || c < 0x20 || c >= 0x80
	}
	return t
}()

// file decodes the top-level object into f.
func (p *parser) file(f *File) error {
	p.space()
	if p.pos == len(p.data) {
		return fmt.Errorf("textio: %w", io.EOF)
	}
	if err := p.expect('{', "an object"); err != nil {
		return err
	}
	if p.close('}') {
		return nil
	}
	for {
		p.space()
		key, err := p.fieldName()
		if err != nil {
			return err
		}
		p.space()
		if err := p.expect(':', "':' after an object key"); err != nil {
			return err
		}
		p.space()
		switch {
		case strings.EqualFold(key, fieldQueries):
			f.Queries, err = array(p, f.Queries, "an array of queries", (*parser).query)
		case strings.EqualFold(key, fieldCosts):
			f.Costs, err = p.costs(f.Costs)
		case strings.EqualFold(key, fieldUniformCost):
			f.UniformCost, err = p.optNumber()
		case strings.EqualFold(key, fieldDefaultCost):
			f.DefaultCost, err = p.optNumber()
		case strings.EqualFold(key, fieldWeights):
			f.Weights, err = array(p, f.Weights, "an array of weights", (*parser).weight)
		default:
			return fmt.Errorf("textio: unknown field %q", key)
		}
		if err != nil {
			return err
		}
		if more, err := p.next('}'); !more || err != nil {
			return err
		}
	}
}

// array decodes a JSON array (or null, giving nil) into s element by
// element, elem decoding each. s is what an earlier occurrence of the field
// left, and the array overwrites it as encoding/json does: element i
// decodes into s[i], so a null element keeps what was there, and growing
// within the capacity reuses the earlier backing array.
func array[T any](p *parser, s []T, what string, elem func(*parser, *T) error) ([]T, error) {
	if p.null() {
		return nil, nil
	}
	if err := p.expect('[', what); err != nil {
		return nil, err
	}
	if p.close(']') {
		return []T{}, nil
	}
	n := 0
	for {
		p.space()
		if n == len(s) {
			s = extend(s)
		}
		if err := elem(p, &s[n]); err != nil {
			return nil, err
		}
		n++
		if more, err := p.next(']'); err != nil {
			return nil, err
		} else if !more {
			return s[:n], nil
		}
	}
}

// extend lengthens s by one element the way encoding/json grows a slice it
// decodes into: within the capacity, the new element keeps what an earlier
// decode left there.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

const whatQuery = "a query (an array of property names)"

// query decodes one query into *q. A query with no earlier occurrence to
// decode into is collected in scratch space, which is all zero values
// between uses, and then copied into the arena.
func (p *parser) query(q *[]string) error {
	if *q != nil {
		v, err := array(p, *q, whatQuery, (*parser).propName)
		*q = v
		return err
	}
	v, err := array(p, p.scratch[:0], whatQuery, (*parser).propName)
	if err != nil || len(v) == 0 {
		*q = v
		return err
	}
	if len(v) > len(p.arena) {
		p.arena = make([]string, max(len(v), arenaChunk))
	}
	*q = p.arena[:len(v):len(v)]
	p.arena = p.arena[len(v):]
	copy(*q, v)
	clear(v)
	p.scratch = v[:0]
	return nil
}

// propName decodes a property name into *s; null leaves *s as it is.
func (p *parser) propName(s *string) error {
	if p.null() {
		return nil
	}
	name, err := p.name()
	*s = name
	return err
}

// weight decodes a weight into *w; null leaves *w as it is.
func (p *parser) weight(w *float64) error {
	if p.null() {
		return nil
	}
	v, err := p.number()
	*w = v
	return err
}

// costs decodes the costs object into m, allocating m when it is nil. A
// null cost stores 0, and a repeated key keeps its last cost.
func (p *parser) costs(m map[string]float64) (map[string]float64, error) {
	if p.null() {
		return nil, nil
	}
	if err := p.expect('{', "an object of costs"); err != nil {
		return nil, err
	}
	// The entries are collected in chunks that double in size, so that
	// collecting them copies none, and the map is sized once for all.
	chunks := [][]costEntry{make([]costEntry, 0, 16)}
	var decoded []string
	n, size := 0, 0
	if !p.close('}') {
		for {
			p.space()
			start, end, plain, err := p.str()
			if err != nil {
				return nil, err
			}
			e := costEntry{start: start, end: end}
			if plain {
				size += end - start
			} else {
				key, err := p.unquote(start, end)
				if err != nil {
					return nil, err
				}
				e.start = -1 - len(decoded)
				decoded = append(decoded, key)
			}
			p.space()
			if err := p.expect(':', "':' after a cost key"); err != nil {
				return nil, err
			}
			p.space()
			if !p.null() {
				if e.cost, err = p.number(); err != nil {
					return nil, err
				}
			}
			last := chunks[len(chunks)-1]
			if len(last) == cap(last) {
				last = make([]costEntry, 0, 2*cap(last))
				chunks = append(chunks, last)
			}
			chunks[len(chunks)-1] = append(last, e)
			n++
			if more, err := p.next('}'); err != nil {
				return nil, err
			} else if !more {
				break
			}
		}
	}
	if m == nil {
		m = make(map[string]float64, n)
	}
	// The plain keys share one string, so storing them allocates once. A
	// strings.Builder grown to size never moves what it has written, so
	// each key is a substring of its final string.
	var b strings.Builder
	b.Grow(size)
	for _, chunk := range chunks {
		for _, e := range chunk {
			key := ""
			if e.start >= 0 {
				b.Write(p.data[e.start:e.end])
				key = b.String()[b.Len()-(e.end-e.start):]
			} else {
				key = decoded[-1-e.start]
			}
			m[key] = e.cost
		}
	}
	return m, nil
}

// optNumber decodes a number, or null as absent.
func (p *parser) optNumber() (*float64, error) {
	if p.null() {
		return nil, nil
	}
	v, err := p.number()
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// number decodes a JSON number as a float64. An integer of at most 15
// digits is exact in a float64 and is converted directly; any other number
// goes through strconv.ParseFloat, as encoding/json does, so one out of the
// float64 range is rejected.
func (p *parser) number() (float64, error) {
	d, i := p.data, p.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return 0, p.failAt(i, "expected a number")
	}
	simple := d[p.pos] != '-' && i-p.pos <= 15
	if i < len(d) && d[i] == '.' {
		simple = false
		if i++; i == len(d) || d[i] < '0' || d[i] > '9' {
			return 0, p.failAt(i, "expected a digit after the decimal point")
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		simple = false
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || d[i] < '0' || d[i] > '9' {
			return 0, p.failAt(i, "expected a digit in the exponent")
		}
		i = digits(d, i)
	}
	tok := d[p.pos:i]
	if simple {
		n := int64(0)
		for _, c := range tok {
			n = n*10 + int64(c-'0')
		}
		p.pos = i
		return float64(n), nil
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, p.fail(fmt.Sprintf("number %s is out of range", tok))
	}
	p.pos = i
	return v, nil
}

func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// fieldName decodes an object key of the File.
func (p *parser) fieldName() (string, error) {
	start, end, plain, err := p.str()
	if err != nil {
		return "", err
	}
	if !plain {
		return p.unquote(start, end)
	}
	return string(p.data[start:end]), nil
}

// name decodes a property name, allocating each distinct plain name once.
func (p *parser) name() (string, error) {
	start, end, plain, err := p.str()
	if err != nil {
		return "", err
	}
	if !plain {
		return p.unquote(start, end)
	}
	b := p.data[start:end]
	if s, ok := p.names[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	p.names[s] = s
	return s, nil
}

// str scans the string token at the current position and returns the
// range of its content. plain reports that the content is its own value:
// ASCII without escapes. Otherwise unquote decodes it.
func (p *parser) str() (start, end int, plain bool, err error) {
	d := p.data
	if p.pos == len(d) || d[p.pos] != '"' {
		return 0, 0, false, p.fail("expected a string")
	}
	plain = true
	i := p.pos + 1
	for {
		for i < len(d) && !strSpecial[d[i]] {
			i++
		}
		if i == len(d) {
			return 0, 0, false, p.failAt(i, "unterminated string")
		}
		switch c := d[i]; {
		case c == '"':
			start, end = p.pos+1, i
			p.pos = i + 1
			return start, end, plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(d) {
				return 0, 0, false, p.failAt(i+1, "unterminated string")
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j == len(d) || !isHex(d[j]) {
						return 0, 0, false, p.failAt(j, "invalid \\u escape")
					}
				}
				i += 6
			default:
				return 0, 0, false, p.failAt(i+1, "invalid escape")
			}
		case c < 0x20:
			return 0, 0, false, p.failAt(i, "control character in string")
		default:
			plain = false
			i++
		}
	}
}

// unquote decodes the string token whose content is data[start:end] with
// encoding/json, so escapes, surrogate pairs and invalid UTF-8 (which
// becomes U+FFFD) decode exactly as encoding/json decodes them. Only
// strings with an escape or a non-ASCII byte take this path.
func (p *parser) unquote(start, end int) (string, error) {
	var s string
	if err := json.Unmarshal(p.data[start-1:end+1], &s); err != nil {
		return "", fmt.Errorf("textio: %w", err)
	}
	return s, nil
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// space skips JSON whitespace.
func (p *parser) space() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// null consumes the literal null if it comes next.
func (p *parser) null() bool {
	if d := p.data[p.pos:]; len(d) >= 4 && d[0] == 'n' && d[1] == 'u' && d[2] == 'l' && d[3] == 'l' {
		p.pos += 4
		return true
	}
	return false
}

// expect consumes the byte c, which must come next.
func (p *parser) expect(c byte, what string) error {
	if p.pos == len(p.data) || p.data[p.pos] != c {
		return p.fail("expected " + what)
	}
	p.pos++
	return nil
}

// close consumes the byte c if it comes next after whitespace: the end of
// an empty array or object.
func (p *parser) close(c byte) bool {
	p.space()
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// next consumes the separator after an array element or object member:
// a comma (more follows) or the closing byte c (the container ends).
func (p *parser) next(c byte) (more bool, err error) {
	p.space()
	if p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ',':
			p.pos++
			return true, nil
		case c:
			p.pos++
			return false, nil
		}
	}
	return false, p.fail(fmt.Sprintf("expected ',' or '%c'", c))
}

func (p *parser) fail(msg string) error { return p.failAt(p.pos, msg) }

// failAt reports a syntax error at offset i, or an unexpected end of input.
func (p *parser) failAt(i int, msg string) error {
	if i >= len(p.data) {
		return fmt.Errorf("textio: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("textio: offset %d: %s, found %q", i, msg, p.data[i])
}
