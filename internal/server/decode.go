package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Request bodies are read whole into a pooled buffer before decoding, so a
// body over the byte limit is always a 413 (even when a complete JSON value
// ends before the limit) and the decoder works on one contiguous slice.
// Nothing decoded may point into the buffer once it goes back to the pool:
// every string and raw span is copied out.

// bodyPool holds request-body buffers. Buffers that grew past
// maxPooledBody are dropped rather than pinned by the pool.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readBody reads body to EOF into a pooled buffer. A body over the
// http.MaxBytesReader limit maps to 413, any other read failure to 400.
// Return the buffer with putBody.
func readBody(body io.Reader) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		putBody(buf)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, tooLarge("request body exceeds the %d-byte limit", mbe.Limit)
		}
		return nil, badRequest("reading request: %v", err)
	}
	return buf, nil
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeRequest parses a /v1/schedule body; prepare validates it. Size
// overruns from http.MaxBytesReader surface here as 413.
//
// The canonical spelling of a request — what a client marshaling a struct
// typically sends — is parsed by decodeCanonical without reflection. Anything
// else falls back to encoding/json over the same bytes, which therefore
// remains the single source of every accepted non-canonical spelling and of
// every decode error message.
func decodeRequest(body io.Reader) (*scheduleRequest, error) {
	buf, err := readBody(body)
	if err != nil {
		return nil, err
	}
	defer putBody(buf)
	req := new(scheduleRequest)
	if !decodeCanonical(buf.Bytes(), req) {
		*req = scheduleRequest{}
		if err := decodeJSON(buf.Bytes(), req); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// decodeJSON is the reference decoder: encoding/json with unknown fields
// rejected and nothing but whitespace allowed after the object.
func decodeJSON(data []byte, req *scheduleRequest) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return badRequest("decoding request: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after request object")
	}
	return nil
}

// decodeCanonical fills req from data and reports true when data is a
// request in canonical spelling, the subset of JSON for which the result
// is exactly what decodeJSON would produce:
//
//   - JSON whitespace anywhere;
//   - exact lowercase known keys, each at most once per object;
//   - no null;
//   - strings of printable ASCII without escapes;
//   - integers of at most 18 digits, with no fraction or exponent;
//   - floats as any JSON number strconv.ParseFloat accepts;
//   - "platform" as any well-formed value in this subset, kept raw;
//   - edges of exactly two integers;
//   - nothing but whitespace after the object.
//
// On false req is left partially filled and must be discarded. There is no
// error reporting here: the fallback reports every error.
func decodeCanonical(data []byte, req *scheduleRequest) bool {
	s := scanner{b: data}
	if !s.fields(func(key []byte) bool {
		switch string(key) {
		case "approach":
			return s.string(&req.Approach)
		case "graph":
			req.Graph = new(graphSpec)
			return s.graph(req.Graph)
		case "stg":
			return s.string(&req.STG)
		case "deadline_sec":
			return s.float(&req.DeadlineSec)
		case "deadline_factor":
			return s.float(&req.DeadlineFactor)
		case "max_procs":
			return s.int(&req.MaxProcs)
		case "platform":
			s.space()
			start := s.i
			if !s.value(0) {
				return false
			}
			req.Platform = append(json.RawMessage(nil), s.b[start:s.i]...)
			return true
		case "faults":
			req.Faults = new(faultsSpec)
			return s.faults(req.Faults)
		}
		return false
	}) {
		return false
	}
	s.space()
	return s.i == len(s.b)
}

// scanner walks a request body for decodeCanonical. Every method reports
// whether the input continued in canonical spelling.
type scanner struct {
	b []byte
	i int
}

// maxDepth bounds the nesting decodeCanonical follows inside a raw value;
// deeper input falls back (encoding/json has its own, larger limit).
const maxDepth = 32

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, if that is what follows.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object parses an object, calling field with the scanner positioned at
// each key's value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') || !field(key) {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// fields parses an object that decodes into a struct. Its keys must be
// distinct, and there can be no more of them than the largest request
// struct has fields: a repeated or an unknown key falls back.
func (s *scanner) fields(field func(key []byte) bool) bool {
	var seen [8][]byte
	n := 0
	return s.object(func(key []byte) bool {
		if n == len(seen) {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		n++
		return field(key)
	})
}

// array parses an array, calling elem with the scanner positioned at each
// element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.consume(']') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// length counts the elements of the array at the scanner's position
// without parsing them, so that its slice is allocated once. It is only a
// capacity: on input that is not canonical it may be off.
func (s *scanner) length() int {
	s.space()
	b := s.b[s.i:]
	n, depth := 1, 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			j := bytes.IndexByte(b[i+1:], '"')
			if j < 0 {
				return 0
			}
			i += j + 1
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth <= 0 {
				return n
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return 0
}

// str returns the contents of a string of printable ASCII without escapes.
// The slice aliases the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
		s.i++
	}
	return nil, false
}

func (s *scanner) string(dst *string) bool {
	v, ok := s.str()
	if ok {
		*dst = string(v)
	}
	return ok
}

// number scans a JSON number and returns its literal, or nil.
func (s *scanner) number() []byte {
	s.space()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == digits || (b[digits] == '0' && i-digits > 1) {
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		if i == frac {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		if i == exp {
			return nil
		}
	}
	s.i = i
	return b[start:i]
}

// int64 parses an integer literal of at most 18 digits, which cannot
// overflow.
func (s *scanner) int64(dst *int64) bool {
	s.space()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i]-'0' <= 9 {
		v = 10*v + int64(b[i]-'0')
		i++
	}
	if n := i - start; n == 0 || n > 18 || (b[start] == '0' && n > 1) {
		return false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return false
	}
	if neg {
		v = -v
	}
	s.i = i
	*dst = v
	return true
}

func (s *scanner) int(dst *int) bool {
	var v int64
	if !s.int64(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

func (s *scanner) float(dst *float64) bool {
	lit := s.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// value skips one well-formed value in canonical spelling: objects, arrays,
// strings, numbers, true and false. Repeated keys are allowed here, as they
// are in any JSON value encoding/json keeps raw.
func (s *scanner) value(depth int) bool {
	if depth > maxDepth {
		return false
	}
	s.space()
	if s.i == len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '{':
		return s.object(func([]byte) bool { return s.value(depth + 1) })
	case c == '[':
		return s.array(func() bool { return s.value(depth + 1) })
	case c == '"':
		_, ok := s.str()
		return ok
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	}
	return s.number() != nil
}

func (s *scanner) literal(word string) bool {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return false
	}
	s.i += len(word)
	return true
}

func (s *scanner) graph(g *graphSpec) bool {
	return s.fields(func(key []byte) bool {
		switch string(key) {
		case "name":
			return s.string(&g.Name)
		case "tasks":
			g.Tasks = make([]taskSpec, 0, s.length())
			return s.array(func() bool {
				g.Tasks = append(g.Tasks, taskSpec{})
				return s.task(&g.Tasks[len(g.Tasks)-1])
			})
		case "edges":
			g.Edges = make([]edgeSpec, 0, s.length())
			return s.array(func() bool {
				g.Edges = append(g.Edges, edgeSpec{})
				return s.edge(&g.Edges[len(g.Edges)-1])
			})
		}
		return false
	})
}

// edge parses an array of exactly two integers.
func (s *scanner) edge(e *edgeSpec) bool {
	return s.consume('[') && s.int(&e[0]) && s.consume(',') && s.int(&e[1]) && s.consume(']')
}

func (s *scanner) task(t *taskSpec) bool {
	return s.fields(func(key []byte) bool {
		switch string(key) {
		case "weight_cycles":
			return s.int64(&t.WeightCycles)
		case "label":
			return s.string(&t.Label)
		}
		return false
	})
}

func (s *scanner) faults(f *faultsSpec) bool {
	return s.fields(func(key []byte) bool {
		switch string(key) {
		case "k":
			return s.int(&f.K)
		case "policy":
			return s.string(&f.Policy)
		}
		return false
	})
}
