package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"unicode/utf8"
)

// WriteEdgeList serializes g in a line-oriented text format:
//
//	# comments and blank lines are ignored
//	n <nodes>
//	id <node> <identifier>       (omitted when identifiers are sequential)
//	e <u> <v>                    (one line per edge, by node index)
//
// The format round-trips exactly through ReadEdgeList, including the
// identifier assignment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	sequential := true
	for v := 0; v < g.N(); v++ {
		if g.ID(v) != int64(v+1) {
			sequential = false
			break
		}
	}
	if !sequential {
		for v := 0; v < g.N(); v++ {
			if _, err := fmt.Fprintf(bw, "id %d %d\n", v, g.ID(v)); err != nil {
				return err
			}
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "e %d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxParseNodes caps the node count the parser accepts: beyond this, a
// malformed or hostile "n" directive would allocate gigabytes of adjacency
// storage before any edge is even read (the fuzzer finds exactly this line).
// Legitimate inputs in this codebase are orders of magnitude smaller.
const maxParseNodes = 1 << 20

// maxLineBytes bounds one line, its newline not counted: a longer line is
// rejected with bufio.ErrTooLong's text, where the bufio.Scanner the parser
// was first written with (its buffer capped at 16 MiB) stopped.
const maxLineBytes = 1 << 24

// NodeLimitError is ReadEdgeListBounded's rejection of an "n" directive
// above the caller's bound. It is a parse error (errors.Is(err, ErrParse))
// that carries the count, so a server can answer it as an oversized graph
// rather than as malformed input.
type NodeLimitError struct {
	Line, N, Max int
}

func (e *NodeLimitError) Error() string {
	return fmt.Sprintf("%v: line %d: node count %d exceeds the limit %d", ErrParse, e.Line, e.N, e.Max)
}

func (e *NodeLimitError) Unwrap() error { return ErrParse }

// ReadEdgeList parses the WriteEdgeList format. Every rejection is a typed
// parse error (errors.Is(err, ErrParse)) carrying the 1-based line number of
// the offending directive; the parser never panics, whatever the input.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListBounded(r, maxParseNodes)
}

// ReadEdgeListBounded is ReadEdgeList for callers with a node budget: an
// "n" directive above maxNodes ends the parse at its line with a
// *NodeLimitError, before anything proportional to the count is allocated.
// A count above the parser's own cap (1<<20) keeps that cap's error.
//
// The input is read whole and parsed in one pass: fields are split and
// numbers parsed in place, IDs go into a slice and edges into another, and
// the graph is assembled by one Rebuild. Duplicate edges are found after
// the scan by one stamp pass over the adjacency lists. The result, and the
// text of every rejection, is what a line-by-line parse with strings.Fields,
// strconv and repeated AddEdge gives (TestReadEdgeListMatchesReference).
func ReadEdgeListBounded(r io.Reader, maxNodes int) (*Graph, error) {
	data, readErr := readInput(r)
	p := edgeListParser{data: data, n: -1}
	err := p.scan(maxNodes)
	if err == nil && readErr != nil {
		err = fmt.Errorf("%w: %v", ErrParse, readErr)
	}
	if err == nil {
		err = p.end()
	}
	var g *Graph
	if err == nil || len(p.edges) >= 2 {
		// Rebuild panics on a non-positive ID, so a failed parse looks
		// for duplicate edges on placeholder IDs. A duplicate edge is on
		// an earlier line than whatever failed, so it is the error the
		// line-by-line parser met first.
		ids := p.ids
		if err != nil || ids == nil {
			ids = sequentialIDs(p.n)
		}
		g = NewFromEdges(ids, p.edges)
		if e := firstRepeatedEdge(g); e >= 0 {
			return nil, p.duplicateError(e)
		}
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// edgeListParser is the state of one ReadEdgeListBounded call.
type edgeListParser struct {
	data   []byte
	pos    int // offset of the next line in data
	lineNo int
	fields [3][]byte // the current line's first fields
	nf     int       // the current line's field count

	n       int // node count, -1 before the n directive
	ids     []int64
	idSet   []bool // which nodes an id directive named
	covered int    // how many nodes an id directive named
	edges   []Edge
}

// end makes the checks the line-by-line parser made once the input ran
// out, in its order: the n directive, then id coverage, then SetIDs'.
func (p *edgeListParser) end() error {
	switch {
	case p.n < 0:
		return fmt.Errorf("%w: missing n directive", ErrParse)
	case p.covered == 0:
		return nil
	case p.covered != p.n:
		return fmt.Errorf("%w: %d id directives for %d nodes", ErrParse, p.covered, p.n)
	case !distinctPositive(p.ids):
		return fmt.Errorf("%w: %v", ErrParse, checkIDs(p.ids))
	}
	return nil
}

func (p *edgeListParser) fail(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrParse, p.lineNo, fmt.Sprintf(format, args...))
}

// nextLine moves to the next line of data and splits it into fields. It
// reports false at the end of the input. Lines are cut as bufio.ScanLines
// cuts them: at each newline, with one trailing carriage return dropped,
// and a last line without a newline counts.
func (p *edgeListParser) nextLine() (bool, error) {
	if p.pos >= len(p.data) {
		return false, nil
	}
	rest := p.data[p.pos:]
	line := rest
	if i := bytes.IndexByte(rest, '\n'); i >= 0 {
		line = rest[:i]
		p.pos += i + 1
	} else {
		p.pos = len(p.data)
	}
	p.lineNo++
	if len(line) >= maxLineBytes {
		return false, fmt.Errorf("%w: %v", ErrParse, bufio.ErrTooLong)
	}
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	p.nf = splitFields(line, &p.fields)
	return true, nil
}

// scan parses every line until the first error, which it returns. It checks
// each line as it comes except for duplicate edges, which the caller looks
// for once the scan has stopped.
func (p *edgeListParser) scan(maxNodes int) error {
	for {
		more, err := p.nextLine()
		if err != nil || !more {
			return err
		}
		if p.nf == 0 || p.fields[0][0] == '#' {
			continue
		}
		f := &p.fields
		switch string(f[0]) {
		case "n":
			if p.n >= 0 {
				return p.fail("duplicate n directive")
			}
			if p.nf != 2 {
				return p.fail("n needs one argument")
			}
			n, ok := atoi(f[1])
			if !ok || n < 0 {
				return p.fail("bad node count %q", f[1])
			}
			if n > maxParseNodes {
				return p.fail("node count %d exceeds the parser cap %d", n, maxParseNodes)
			}
			if n > maxNodes {
				return &NodeLimitError{Line: p.lineNo, N: n, Max: maxNodes}
			}
			p.n = n
			// The served families have about as many edges as nodes,
			// and an edge line takes at least 6 bytes with its newline
			// (5 for a last line without one).
			p.edges = make([]Edge, 0, min(n, (len(p.data)-p.pos+1)/6))
		case "id":
			if p.n < 0 {
				return p.fail("id before n")
			}
			if p.nf != 3 {
				return p.fail("id needs two arguments")
			}
			v, ok1 := atoi(f[1])
			id, ok2 := parseInt64(f[2])
			if !ok1 || !ok2 || v < 0 || v >= p.n {
				return p.fail("bad id directive")
			}
			if p.ids == nil {
				p.ids = make([]int64, p.n)
				p.idSet = make([]bool, p.n)
			}
			p.ids[v] = id
			if !p.idSet[v] {
				p.idSet[v] = true
				p.covered++
			}
		case "e":
			if p.n < 0 {
				return p.fail("e before n")
			}
			if p.nf != 3 {
				return p.fail("e needs two arguments")
			}
			u, ok1 := atoi(f[1])
			v, ok2 := atoi(f[2])
			if !ok1 || !ok2 {
				return p.fail("bad edge")
			}
			if u < 0 || u >= p.n || v < 0 || v >= p.n {
				return p.fail("%v: edge {%d,%d} out of range [0,%d)", ErrBadEdge, u, v, p.n)
			}
			if u == v {
				return p.fail("%v: loop at node %d", ErrBadEdge, u)
			}
			p.edges = append(p.edges, Edge{U: min(u, v), V: max(u, v)})
		default:
			return p.fail("unknown directive %q", f[0])
		}
	}
}

// duplicateError reports edge e, which repeats an earlier edge, at its
// line and with its endpoints in the line's order. Scanning stopped after
// e's line, so every e line up to it was read into edges in order.
func (p *edgeListParser) duplicateError(e int) error {
	p.pos, p.lineNo = 0, 0
	for k := -1; ; {
		if more, _ := p.nextLine(); !more {
			panic("graph: duplicate edge beyond the scanned lines")
		}
		if p.nf == 3 && string(p.fields[0]) == "e" {
			if k++; k == e {
				u, _ := atoi(p.fields[1])
				v, _ := atoi(p.fields[2])
				return p.fail("%v: duplicate edge {%d,%d}", ErrBadEdge, u, v)
			}
		}
	}
}

// asciiSpace marks the bytes below 0x80 that unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields stores the first len(dst) fields of line in dst, without
// copying, and returns how many fields the line has. Fields are split where
// strings.Fields splits them: an ASCII line on its six ASCII spaces, and a
// line holding any other byte by bytes.Fields, strings.Fields' twin.
func splitFields(line []byte, dst *[3][]byte) int {
	nf := 0
	for i := 0; i < len(line); {
		c := line[i]
		if c >= utf8.RuneSelf {
			return splitFieldsUnicode(line, dst)
		}
		if asciiSpace[c] {
			i++
			continue
		}
		start := i
		for i < len(line) && line[i] < utf8.RuneSelf && !asciiSpace[line[i]] {
			i++
		}
		if i < len(line) && line[i] >= utf8.RuneSelf {
			return splitFieldsUnicode(line, dst)
		}
		if nf < len(dst) {
			dst[nf] = line[start:i]
		}
		nf++
	}
	return nf
}

func splitFieldsUnicode(line []byte, dst *[3][]byte) int {
	fields := bytes.Fields(line)
	for i := 0; i < len(fields) && i < len(dst); i++ {
		dst[i] = fields[i]
	}
	return len(fields)
}

// parseInt64 accepts exactly what strconv.ParseInt(s, 10, 64) accepts: an
// optional sign, at least one decimal digit, nothing else, and a value
// that fits in an int64.
func parseInt64(s []byte) (int64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range s {
		d := c - '0'
		if d > 9 || u > (1<<63)/10 {
			return 0, false
		}
		if u = u*10 + uint64(d); u > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(u), true // u == 1<<63 gives math.MinInt64
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// atoi accepts exactly what strconv.Atoi accepts.
func atoi(s []byte) (int, bool) {
	x, ok := parseInt64(s)
	if !ok || int64(int(x)) != x {
		return 0, false
	}
	return int(x), true
}

// readInput reads r to its end. It stops where the bufio.Scanner the
// parser was first written with stopped: at a read error, after more than
// 100 reads in a row that return nothing, and at a read count out of
// range; the bytes read before the stop are returned either way.
func readInput(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1 // room for the read that reports io.EOF
	}
	data := make([]byte, 0, size)
	for empty := 0; ; {
		if len(data) == cap(data) {
			data = slices.Grow(data, len(data))
		}
		n, err := r.Read(data[len(data):cap(data)])
		if n < 0 || n > cap(data)-len(data) {
			return data, bufio.ErrBadReadCount
		}
		data = data[:len(data)+n]
		switch {
		case err == io.EOF:
			return data, nil
		case err != nil:
			return data, err
		case n > 0:
			empty = 0
		default:
			if empty++; empty > 100 {
				return data, io.ErrNoProgress
			}
		}
	}
}

// distinctPositive reports whether ids are positive and pairwise distinct,
// which is what SetIDs accepts, without SetIDs' map: a bitset when every ID
// is at most 64 times the node count, and a sorted copy otherwise.
func distinctPositive(ids []int64) bool {
	var maxID int64
	for _, id := range ids {
		if id <= 0 {
			return false
		}
		maxID = max(maxID, id)
	}
	if maxID <= 64*int64(len(ids)) {
		seen := make([]uint64, maxID/64+1)
		for _, id := range ids {
			if seen[id/64]&(1<<(id%64)) != 0 {
				return false
			}
			seen[id/64] |= 1 << (id % 64)
		}
		return true
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return false
		}
	}
	return true
}

// firstRepeatedEdge returns the smallest index of an edge of g that repeats
// an earlier edge, or -1. Rebuild lays every adjacency list out in edge
// order, so one stamp pass over each list meets an edge's earlier copies
// before it.
func firstRepeatedEdge(g *Graph) int {
	first := -1
	if g.M() < 2 {
		return first
	}
	stamp := make([]int32, g.n)
	for u := 0; u < g.n; u++ {
		for i, w := range g.adj[u] {
			if stamp[w] != int32(u+1) {
				stamp[w] = int32(u + 1)
			} else if e := g.inc[u][i]; first < 0 || e < first {
				first = e
			}
		}
	}
	return first
}

// Equal reports whether two graphs are identical: same node count, same
// identifiers per index, and the same edge set.
func Equal(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.ID(v) != b.ID(v) {
			return false
		}
	}
	edgeKey := func(g *Graph) []string {
		keys := make([]string, 0, g.M())
		for _, e := range g.Edges() {
			keys = append(keys, fmt.Sprintf("%d-%d", e.U, e.V))
		}
		sort.Strings(keys)
		return keys
	}
	ka, kb := edgeKey(a), edgeKey(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
