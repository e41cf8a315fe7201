package obs

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runtimeFamilies are the emitted families no string literal at a
// Counter / Gauge / Histogram / span call names, each with where its
// name comes from.
var runtimeFamilies = map[string]string{
	"fragcache.hits":      "passed to fragcache's Cache.count, which adds the scope-labeled twin",
	"fragcache.coalesced": "passed to fragcache's Cache.count, which adds the scope-labeled twin",
	"fragcache.misses":    "passed to fragcache's Cache.count, which adds the scope-labeled twin",
}

// nameArg maps each metric-naming method to the index of its family
// argument; obs.Time and obs.Count are matched as package functions.
var nameArg = map[string]int{
	"Counter": 0, "Gauge": 0, "Histogram": 0, "Start": 0, "Child": 0,
	"StartCtx": 1, "StartRemote": 1,
}

// TestMetricNamesDocumented holds docs/OBSERVABILITY.md's metric tables
// and the code to one set of families: every family a non-test file
// under internal/ or cmd/ names at a metric or span call is in a table,
// and every family in a table is emitted.
func TestMetricNamesDocumented(t *testing.T) {
	root := filepath.Join("..", "..")
	emitted := map[string]string{} // family → first call site
	for _, dir := range []string{"internal", "cmd"} {
		collectEmitted(t, filepath.Join(root, dir), emitted)
	}
	for fam, why := range runtimeFamilies {
		emitted[fam] = "built at run time: " + why
	}
	documented := documentedFamilies(t, filepath.Join(root, "docs", "OBSERVABILITY.md"))

	for _, fam := range sortedKeys(emitted) {
		if !documented[fam] {
			t.Errorf("%s: family %q is emitted but not in docs/OBSERVABILITY.md's metric tables", emitted[fam], fam)
		}
	}
	for _, fam := range sortedKeys(documented) {
		if _, ok := emitted[fam]; !ok {
			t.Errorf("docs/OBSERVABILITY.md documents %q, which nothing emits", fam)
		}
	}
}

// collectEmitted parses every non-test Go file under dir and records in
// out each family named by a string literal (directly, through a
// package string constant, or as obs.Name's first argument) at a metric
// or span call, or rendered by obs.Name anywhere, with the first
// position naming it.
func collectEmitted(t *testing.T, dir string, out map[string]string) {
	t.Helper()
	pkgs := map[string][]*ast.File{} // directory → files
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, files := range pkgs {
		consts := stringConsts(files)
		var family func(e ast.Expr) (string, bool)
		family = func(e ast.Expr) (string, bool) {
			switch e := e.(type) {
			case *ast.BasicLit:
				if s, err := strconv.Unquote(e.Value); err == nil && e.Kind == token.STRING {
					return s, true
				}
			case *ast.Ident:
				s, ok := consts[e.Name]
				return s, ok
			case *ast.CallExpr:
				if isPkgFunc(e.Fun, "obs", "Name") && len(e.Args) > 0 {
					return family(e.Args[0])
				}
			}
			return "", false
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPkgFunc(call.Fun, "obs", "Name") {
					// A name rendered ahead of its metric or span call (a
					// handle table resolved once) names its family too.
					if fam, ok := family(call); ok {
						if _, seen := out[fam]; !seen {
							out[fam] = fset.Position(call.Pos()).String()
						}
					}
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				i, ok := nameArg[sel.Sel.Name]
				if isPkgFunc(sel, "obs", "Time") || isPkgFunc(sel, "obs", "Count") {
					i, ok = 0, true
				}
				if !ok || i >= len(call.Args) {
					return true
				}
				if fam, ok := family(call.Args[i]); ok {
					if _, seen := out[fam]; !seen {
						out[fam] = fset.Position(call.Pos()).String()
					}
				}
				return true
			})
		}
	}
}

// stringConsts collects a package's constants declared as string
// literals.
func stringConsts(files []*ast.File) map[string]string {
	consts := map[string]string{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, v := range vs.Values {
					if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							consts[vs.Names[i].Name] = s
						}
					}
				}
			}
		}
	}
	return consts
}

func isPkgFunc(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

var backticked = regexp.MustCompile("`([^`]+)`")

// documentedFamilies reads the first column of every `| Family | …`
// table in the doc and expands each backticked entry: a brace group
// holding `=` is a label block and is dropped, any other brace group is
// a list of alternatives.
func documentedFamilies(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(line, "|")
		if strings.TrimSpace(cells[1]) == "Family" {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			for _, fam := range expandFamily(m[1]) {
				out[fam] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no metric tables found", path)
	}
	return out
}

func expandFamily(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	prefix, inner, rest := s[:open], s[open+1:end], s[end+1:]
	if strings.Contains(inner, "=") {
		return expandFamily(prefix + rest)
	}
	var out []string
	for _, alt := range strings.Split(inner, ",") {
		out = append(out, expandFamily(prefix+alt+rest)...)
	}
	return out
}
