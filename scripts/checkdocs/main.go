// Command checkdocs checks that the code the documentation names
// exists. In README.md, DESIGN.md and docs/*.md it reads every
// backticked span outside fenced code blocks and resolves three kinds of
// reference against the module's Go source, parsed with go/parser:
//
//   - a span that starts with a test, benchmark, example or fuzz
//     function name (`TestX`, `TestX/sub`, `BenchmarkY*` for a prefix)
//     names a function some _test.go file declares;
//   - `internal/<pkg>.<Name>` names a function, method or type that
//     package declares;
//   - a span ending in .go is a file of the repository, as a path from
//     its root: a bare file name is a file of the root package, never
//     one of that name in some other directory.
//
// EXPERIMENTS.md is a record of past measurements and is not checked.
// Run it from the module root (scripts/ci.sh does):
//
//	go run ./scripts/checkdocs
//
// It prints each reference that does not resolve and exits 1 if there
// is one.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	// testFunc is a span's leading test, benchmark, example or fuzz
	// function name, as `go test` recognises one (the prefix, then
	// nothing or a character that is not a lower-case letter), and
	// whether a `*` makes it a prefix.
	testFunc = regexp.MustCompile(`^((?:Test|Benchmark|Example|Fuzz)(?:[A-Z0-9_]\w*)?)(\*?)(?:\W|$)`)
	// pkgName is `internal/<pkg>.<Name>`.
	pkgName = regexp.MustCompile(`^(internal(?:/\w+)+)\.([A-Za-z_]\w*)`)
	// goFile is a span that names a Go file.
	goFile = regexp.MustCompile(`^[\w./*-]+\.go$`)
	// codeSpan is one backticked span; it may wrap a line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
)

// tree is what the documentation may name.
type tree struct {
	tests map[string]bool            // test-file function names
	decls map[string]map[string]bool // package directory → functions, methods, types
	files map[string]bool            // .go paths from the root
}

func main() {
	t, err := parseTree(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdocs:", err)
		os.Exit(2)
	}
	docs, _ := filepath.Glob("docs/*.md")
	docs = append([]string{"README.md", "DESIGN.md"}, docs...)
	refs, bad := 0, 0
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkdocs:", err)
			os.Exit(2)
		}
		for _, s := range spans(string(src)) {
			ok, checked := t.resolve(s.text)
			if !checked {
				continue
			}
			refs++
			if !ok {
				bad++
				fmt.Printf("%s:%d: `%s` does not resolve in the tree\n", doc, s.line, s.text)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("checkdocs: %d of %d code references do not resolve (rename the reference, or restore what it names)\n", bad, refs)
		os.Exit(1)
	}
	fmt.Printf("checkdocs: %d code references in %d documents resolve\n", refs, len(docs))
}

// span is one backticked span and the line it starts on.
type span struct {
	text string
	line int
}

// spans returns the backticked spans of a Markdown document outside its
// fenced code blocks.
func spans(doc string) []span {
	var out []span
	lines := strings.Split(doc, "\n")
	fenced := false
	start := 0 // first line of the current run of prose
	flush := func(end int) {
		text := strings.Join(lines[start:end], "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			s := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			out = append(out, span{s, start + 1 + strings.Count(text[:m[0]], "\n")})
		}
	}
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			if !fenced {
				flush(i)
			}
			fenced = !fenced
			start = i + 1
		}
	}
	if !fenced {
		flush(len(lines))
	}
	return out
}

// resolve reports whether a span's reference names something in the
// tree, and whether the span is a reference at all.
func (t *tree) resolve(s string) (ok, checked bool) {
	switch {
	case goFile.MatchString(s):
		if strings.Contains(s, "*") {
			matches, _ := filepath.Glob(s)
			return len(matches) > 0, true
		}
		return t.files[s], true
	case testFunc.MatchString(s):
		m := testFunc.FindStringSubmatch(s)
		if m[2] == "" {
			return t.tests[m[1]], true
		}
		for name := range t.tests {
			if strings.HasPrefix(name, m[1]) {
				return true, true
			}
		}
		return false, true
	case pkgName.MatchString(s):
		m := pkgName.FindStringSubmatch(s)
		return t.decls[m[1]][m[2]], true
	}
	return false, false
}

// parseTree parses every Go file under root.
func parseTree(root string) (*tree, error) {
	t := &tree{
		tests: map[string]bool{},
		decls: map[string]map[string]bool{},
		files: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		p = filepath.ToSlash(p)
		t.files[p] = true
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(p)
		if t.decls[dir] == nil {
			t.decls[dir] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				t.decls[dir][decl.Name.Name] = true
				if decl.Recv == nil && strings.HasSuffix(name, "_test.go") {
					t.tests[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						t.decls[dir][ts.Name.Name] = true
					}
				}
			}
		}
		return nil
	})
	return t, err
}
