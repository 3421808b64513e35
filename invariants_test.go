package pmemgraph

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// archRule forbids calls of the named functions or methods in the root
// module's non-test code outside the allowed sites. A bare call name
// ("BuildIn") matches a selector call on any receiver; a package-qualified
// one ("core.New") matches only a selector on that package identifier, so
// it leaves engine.New alone. A site is a package directory relative to the
// module root ("internal/graph"), one function in it
// ("internal/frameworks.Seal") or one method, named with its receiver's
// type ("internal/core.AdjView.ChargeVisit").
type archRule struct {
	name    string
	calls   []string
	allowed []string
	why     string
}

var archRules = []archRule{
	{
		name:    "seal-at-birth",
		calls:   []string{"BuildIn", "AddRandomWeights"},
		allowed: []string{"internal/graph", "internal/frameworks.Seal", "cmd/graphgen"},
		why:     "inputs are sealed once where they are born (frameworks.Seal); a run that seals its graph makes later runs depend on it",
	},
	{
		name:    "plan-is-the-dispatch",
		calls:   []string{"core.New", "core.MustNew", "core.NewOverlay"},
		allowed: []string{"internal/frameworks", "internal/shard", "internal/bench.FigCompress"},
		why:     "every execution is a frameworks.Plan (Plan.Variant picks a §5 variant); only Plan.Run, the shard workers and FigCompress's per-array read counts build a runtime",
	},
	{
		name:    "one-row-reader",
		calls:   []string{"Cursor"},
		allowed: []string{"internal/graph", "internal/gen", "internal/core.RowBuf.merge", "internal/engine.edgePush", "internal/engine.edgePull"},
		why:     "kernels and drivers read a visited row through core.AdjView.ReadRow; only it walks a Cursor, to merge an overlay row, besides the per-edge adapters that hand out edge indices",
	},
	{
		name:    "one-visit-charge",
		calls:   []string{"ReadN"},
		allowed: []string{"internal/memsim", "internal/core.AdjView.ChargeVisit"},
		why:     "a per-vertex visit is charged by core.AdjView.ChargeVisit alone (offset pair, then block), so a change to that charge edits one body",
	},
}

// TestArchitectureRules walks every non-test .go file of the root module
// (the nested benchmark/ module is not part of it) and reports each call a
// rule forbids by rule name and position.
func TestArchitectureRules(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		for _, v := range archViolations(fset, filepath.ToSlash(filepath.Dir(p)), f) {
			t.Error(v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// archViolations returns one message per forbidden call in f, a file of
// the package in directory dir. Only selector calls are checked: a bare
// call can only name a function of the file's own package.
func archViolations(fset *token.FileSet, dir string, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		site := dir
		if fn, ok := decl.(*ast.FuncDecl); ok {
			site = dir + "." + fn.Name.Name
			if fn.Recv != nil {
				site = dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok {
				name = pkg.Name + "." + name
			}
			for _, r := range archRules {
				if (slices.Contains(r.calls, sel.Sel.Name) || slices.Contains(r.calls, name)) &&
					!slices.Contains(r.allowed, dir) && !slices.Contains(r.allowed, site) {
					out = append(out, fmt.Sprintf("%s: %s: call of %s (%s)", r.name, fset.Position(call.Pos()), name, r.why))
				}
			}
			return true
		})
	}
	return out
}

// recvName returns the type name of a method receiver, without its
// pointer or type parameters.
func recvName(x ast.Expr) string {
	switch t := x.(type) {
	case *ast.StarExpr:
		return recvName(t.X)
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// inlineRule requires the compiler to inline each listed function of the
// package in directory pkg: `go build -gcflags=-m=2` must report "can
// inline" for it. The names are as the compiler prints them, with the
// receiver ("(*tlbClass).lookup", "quadrants.pick").
type inlineRule struct {
	pkg   string
	funcs []string
	why   string
}

var inlineRules = []inlineRule{
	{
		pkg: "internal/memsim",
		funcs: []string{"(*tlbClass).lookup", "expectedMisses", "(*Array).ReadN", "(*tlbClass).holds", "(*tlbClass).reset",
			"(*Thread).chance", "(*Array).Read", "(*Array).Write", "(*Array).ReadRange", "(*Array).RandomN"},
		why: "every simulated charge runs them; lookup sits one node under Go's inline budget of 80, expectedMisses and ReadN four",
	},
	{
		pkg:   "internal/graph",
		funcs: []string{"(*Cursor).baseNext"},
		why:   "an overlay Cursor steps its base row through it per edge",
	},
	{
		pkg:   "internal/gen",
		funcs: []string{"quadrants.pick"},
		why:   "RMAT picks a quadrant per bit of every edge",
	},
}

// TestInlineContract builds every inlineRules package once with the
// compiler's inlining report and fails, naming the function and the cost
// the compiler gave it, for each listed function it does not inline.
func TestInlineContract(t *testing.T) {
	args := []string{"build", "-gcflags=-m=2"}
	for _, r := range inlineRules {
		args = append(args, "./"+r.pkg)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	report := string(out)
	for _, r := range inlineRules {
		for _, fn := range r.funcs {
			at := regexp.QuoteMeta(r.pkg+"/") + `[^:]+\.go:\d+:\d+: `
			if regexp.MustCompile(`(?m)^` + at + `can inline ` + regexp.QuoteMeta(fn) + ` with cost \d+`).MatchString(report) {
				continue
			}
			why := "no inlining report for it (renamed or removed?)"
			if m := regexp.MustCompile(`(?m)^` + at + `cannot inline ` + regexp.QuoteMeta(fn) + `: (.*)$`).FindStringSubmatch(report); m != nil {
				why = m[1]
			}
			t.Errorf("inline contract: %s.%s is not inlined: %s (%s)", r.pkg, fn, why, r.why)
		}
	}
}
