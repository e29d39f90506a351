package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// readEdgeListReference is ReadEdgeList as it was before the one-pass
// parser, kept verbatim as the oracle of TestReadEdgeListMatchesReference
// and FuzzReadEdgeList: a bufio.Scanner over lines, strings.Fields and
// strconv per line, an ID map, and one AddEdge per edge line. The one-pass
// parser must accept exactly what it accepts, build the same graph (IDs,
// edge order, adjacency and incidence order), and reject the rest with the
// same error text.
func readEdgeListReference(r io.Reader) (*Graph, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	ids := map[int]int64{}
	lineNo := 0
	fail := func(format string, args ...any) (*Graph, error) {
		return nil, fmt.Errorf("%w: line %d: %s", ErrParse, lineNo, fmt.Sprintf(format, args...))
	}
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "n":
			if g != nil {
				return fail("duplicate n directive")
			}
			if len(fields) != 2 {
				return fail("n needs one argument")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return fail("bad node count %q", fields[1])
			}
			if n > maxParseNodes {
				return fail("node count %d exceeds the parser cap %d", n, maxParseNodes)
			}
			g = New(n)
		case "id":
			if g == nil {
				return fail("id before n")
			}
			if len(fields) != 3 {
				return fail("id needs two arguments")
			}
			v, err1 := strconv.Atoi(fields[1])
			id, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil || v < 0 || v >= g.N() {
				return fail("bad id directive")
			}
			ids[v] = id
		case "e":
			if g == nil {
				return fail("e before n")
			}
			if len(fields) != 3 {
				return fail("e needs two arguments")
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return fail("bad edge")
			}
			if _, err := g.AddEdge(u, v); err != nil {
				return fail("%v", err)
			}
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	if g == nil {
		return nil, fmt.Errorf("%w: missing n directive", ErrParse)
	}
	if len(ids) > 0 {
		if len(ids) != g.N() {
			return nil, fmt.Errorf("%w: %d id directives for %d nodes", ErrParse, len(ids), g.N())
		}
		all := make([]int64, g.N())
		for v, id := range ids {
			all[v] = id
		}
		if err := g.SetIDs(all); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParse, err)
		}
	}
	return g, nil
}
