package senkf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// facadeDecls returns every exported top-level name of the root package's
// non-test files, mapped to the declaration that introduces it: the whole
// FuncDecl for a function, the one spec for a type, const or var.
func facadeDecls(t *testing.T) map[string]ast.Node {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src []string
	for _, name := range files {
		if !strings.HasSuffix(name, "_test.go") {
			src = append(src, name)
		}
	}
	decls := map[string]ast.Node{}
	for name, node := range packageDecls(t, src)["senkf"] {
		if !strings.Contains(name, ".") && token.IsExported(name) {
			decls[name] = node
		}
	}
	return decls
}

// facadeUses returns the root names written as senkf.X in the Go files
// under dirs (a selector on the package named senkf) and in the text of
// the given documents.
func facadeUses(t *testing.T, dirs, docs []string) map[string]bool {
	t.Helper()
	used := map[string]bool{}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "senkf" {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ref := regexp.MustCompile(`\bsenkf\.([A-Z][A-Za-z0-9_]*)`)
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(b, -1) {
			used[string(m[1])] = true
		}
	}
	return used
}

// TestFacadeNamesHaveAUser keeps the root package to the names its
// binaries, examples, benchmark and README reach: every exported name is
// written as senkf.X in cmd/, examples/, benchmark/ or README.md, or is
// named in the declaration of a name that is (a parameter type, a field's
// alias, a helper a kept function calls), transitively. A name with no
// such user is dead weight on the one public surface; delete it, or use
// its internal package directly from the test that wants it.
func TestFacadeNamesHaveAUser(t *testing.T) {
	decls := facadeDecls(t)
	used := facadeUses(t, []string{"cmd", "examples", "benchmark"}, []string{"README.md"})
	var work []string
	for name := range used {
		if _, ok := decls[name]; ok {
			work = append(work, name)
		}
	}
	kept := map[string]bool{}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if kept[name] {
			continue
		}
		kept[name] = true
		ast.Inspect(decls[name], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, ok := decls[id.Name]; ok && !kept[id.Name] {
					work = append(work, id.Name)
				}
			}
			return true
		})
	}
	var unused []string
	for name := range decls {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported root names have no user in cmd/, examples/, benchmark/ or README.md:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}
