// Command deadcode fails when a function or method declared under
// internal/ is linked into none of the repository's programs and is not on
// the keep list below.
//
// It builds cmd/locad, every examples/* program and perfbench with
// inlining off (so a function the linker keeps is still a symbol of its
// own), reads their text symbols with `go tool nm`, and compares them with
// every function and method that a non-test .go file under internal/
// declares. Run it from the repository root:
//
//	go run ./scripts/deadcode
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "localadvice"

// keep holds the declared but unlinked names that stay, each with the
// reason it stays. A name is "pkg.Func" or "pkg.Type.Method"; "pkg.Type.*"
// covers every method of the type. An entry that matches no unlinked
// function fails the scan too, so the list cannot outlive its code.
var keep = map[string]string{
	// Test fixtures: inputs the tests build their cases from.
	"graph.Complete":              "fixture: cliques for the coloring, solver and BFS tests",
	"graph.CompleteBipartite":     "fixture: bipartite inputs for the graph and cubic-codec tests",
	"graph.Star":                  "fixture: a high-degree hub for engine, LCL and table tests",
	"graph.Hypercube":             "fixture: cubes for the diameter and cubic-codec tests",
	"graph.RandomTree":            "fixture: random trees for the coloring and pairing tests",
	"graph.RandomEvenDegree":      "fixture: even-degree inputs for the orientation tests",
	"graph.addRandomCycleOverlay": "helper of the RandomEvenDegree fixture",
	"graph.DisjointUnion":         "fixture: disconnected inputs for many packages' tests",
	"graph.Prism":                 "fixture: cubic inputs for the solver and cubic-codec tests",
	"graph.Petersen":              "fixture: cubic inputs for the solver and cubic-codec tests",
	"graph.AssignSequentialIDs":   "fixture: resets a graph to IDs 1..n in the ID tests",
	"coloring.NewThreeColoring":   "fixture: the Theorem 7.1 schema at its default parameters",
	"decompress.NewOriented":      "fixture: the orientation codec at its default parameters",
	"lcl.SinklessOrientation.*":   "fixture: an LCL problem the solver and verifier tests run",
	"lcl.WeakColoring.*":          "fixture: an LCL problem the solver and verifier tests run",
	"lcl.RulingSet.*":             "fixture: an LCL problem the solver and verifier tests run",

	// Test oracles: independent answers that tests compare the code with.
	"graph.Equal":                     "oracle: graph identity in parser, digest and store tests",
	"graph.Graph.Dist":                "oracle: pairwise distance for the BFS tests",
	"graph.Graph.SortAdjacencyByID":   "oracle: the in-place sort IncidentEdgesByID must match",
	"graph.Skeleton.Edges":            "oracle: the skeleton edge count the frugal-flood pins read",
	"graph.CSR.Degree":                "oracle: snapshot accessor the snapshot tests compare with the adjacency",
	"graph.CSR.N":                     "oracle: snapshot accessor the snapshot tests compare with the adjacency",
	"lcl.Solution.Complete":           "oracle: whether every label is set, as the solution-helper test reads it",
	"orient.Balanced":                 "oracle: |indeg - outdeg| <= 1 at every node",
	"orient.Decomposition.Check":      "oracle: trail decomposition validity",
	"coloring.IsGreedy":               "oracle: greedy-coloring property of Greedify's output",
	"coloring.SolveKColoring":         "oracle: exact K-coloring behind the DSATUR and schema tests",
	"bitstr.FindHeader":               "oracle: marker-code header search in codec tests",
	"bitstr.MarkerEncodedLen":         "oracle: marker-code length in codec tests",
	"cache.Cache.Keys":                "oracle: the LRU property test reads the recency order",
	"obs.RoundMetric.Deterministic":   "oracle: the worker-count-independent fields determinism tests compare",
	"core.OneBitCodec.MaxPayloadBits": "oracle: the 1-bit codec's capacity, which its tests fill",
	"fault.Report.String":             "fmt.Stringer: renders a fault report in test failures",

	// Methods an interface or a sibling type requires.
	"core.Pipeline.Name":             "core.Schema method",
	"core.Pipeline.Problem":          "core.Schema method",
	"edgecolor.Schema.Name":          "core.Schema method",
	"edgecolor.Schema.Problem":       "core.Schema method",
	"decompress.Trivial.MaxBits":     "decompress.Codec method",
	"decompress.CubicTwoBit.MaxBits": "decompress.Codec method",
	"decompress.Oriented.MaxBits":    "decompress.Codec method",
	"core.schemaAdapter.*":           "core.Schema methods of the AsSchema adapter",

	// Paper-facing checkers; ROADMAP item 10 decides which experiment runs them.
	"eth.CheckOrderInvariant":     "Section 8: order invariance of a ball algorithm",
	"core.CheckComposable":        "Definition 4: composability of schemas",
	"core.TuneSparsity":           "Definition 3: the sparsity knob search",
	"core.DecodeVerified":         "E9's verified-decoding contract for one schema",
	"core.AsSchema":               "Lemma 1: a variable-length schema as a core.Schema",
	"core.AsOneBitSchema":         "Lemma 2: a variable-length schema as a 1-bit core.Schema",
	"lll.SymmetricConditionHolds": "Lemma 3.1: the symmetric LLL condition",
	"lll.DependencyDegree":        "Lemma 3.1: the d of the symmetric LLL",
	"growth.AlphaProfile":         "Lemma 4.3: where the growth schema's α exists on a family",
}

func main() {
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run reports whether every declared function is linked or kept.
func run() (bool, error) {
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	// Every program of the repository: locad, each example, and perfbench,
	// which is its own module and builds from its own directory.
	type build struct{ dir, pkg string }
	builds := []build{{".", "./cmd/locad"}}
	examples, _ := filepath.Glob("examples/*/main.go")
	for _, m := range examples {
		builds = append(builds, build{".", "./" + filepath.Dir(m)})
	}
	builds = append(builds, build{"perfbench", "."})

	linked := map[string]bool{}
	for i, b := range builds {
		bin := filepath.Join(tmp, fmt.Sprint(i))
		if _, err := goCmd(b.dir, "build", "-gcflags=all=-l", "-o", bin, b.pkg); err != nil {
			return false, fmt.Errorf("build %s in %s: %w", b.pkg, b.dir, err)
		}
		nm, err := goCmd(".", "tool", "nm", "-type", bin)
		if err != nil {
			return false, fmt.Errorf("nm %s: %w", b.pkg, err)
		}
		addSymbols(linked, nm)
	}

	decls, err := declared("internal")
	if err != nil {
		return false, err
	}
	used := map[string]bool{}
	dead := 0
	for _, d := range decls {
		if linked[module+"/internal/"+d.name] {
			continue
		}
		if e, ok := keepEntry(d.name); ok {
			used[e] = true
			continue
		}
		fmt.Printf("unlinked: %s: %s\n", d.pos, d.name)
		dead++
	}
	var stale []string
	for name := range keep {
		if !used[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Println("keep entry matches no unlinked function:", name)
	}
	if dead+len(stale) > 0 {
		fmt.Printf("deadcode: %d unlinked functions, %d stale keep entries\n", dead, len(stale))
		return false, nil
	}
	fmt.Printf("deadcode: ok (%d functions declared under internal/, %d keep entries)\n", len(decls), len(keep))
	return true, nil
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return string(out), err
}

// addSymbols records every text symbol of the module's internal packages
// that `go tool nm -type` lists as "path.Func" or "path.Type.Method":
// "(*T)" becomes "T", type arguments are dropped, and a closure such as
// "F.func1" also counts as F.
func addSymbols(linked map[string]bool, nm string) {
	prefix := module + "/internal/"
	for _, line := range strings.Split(nm, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], prefix) {
			continue
		}
		sym := stripBrackets(strings.Join(f[2:], " "))
		sym = strings.NewReplacer("(*", "", ")", "").Replace(sym)
		// The package path ends at the first dot after its last slash.
		slash := strings.LastIndex(sym, "/")
		parts := strings.Split(sym[slash+1:], ".")
		pkg := sym[:slash+1] + parts[0]
		for i := 2; i <= len(parts) && i <= 3; i++ {
			linked[pkg+"."+strings.Join(parts[1:i], ".")] = true
		}
	}
}

// stripBrackets removes every bracketed (possibly nested) type argument
// list, as in "growth.resized[go.shape.int]".
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type decl struct{ name, pos string }

// declared lists every function and method declared in a non-test .go
// file under root, named relative to root ("graph.Equal",
// "graph.Graph.Dist").
func declared(root string) ([]decl, error) {
	fset := token.NewFileSet()
	var out []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		pkg = filepath.ToSlash(pkg)
		for _, dcl := range f.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			out = append(out, decl{name, fset.Position(fn.Pos()).String()})
		}
		return nil
	})
	return out, err
}

// recvType names a receiver's type: "T" for T, *T, T[K] and *T[K, V].
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return fmt.Sprintf("%T", e)
}

// keepEntry returns the keep entry that covers name, if any.
func keepEntry(name string) (string, bool) {
	if _, ok := keep[name]; ok {
		return name, true
	}
	if strings.Count(name, ".") == 2 {
		all := name[:strings.LastIndex(name, ".")] + ".*"
		_, ok := keep[all]
		return all, ok
	}
	return "", false
}
