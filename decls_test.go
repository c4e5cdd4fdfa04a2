package senkf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleGoFiles lists every Go file of the module, tests included, outside
// hidden and testdata directories.
func moduleGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// packageDecls indexes the declarations of files by package name (an
// external test package counts as the package it tests; packages named
// main, the binaries and the benchmark, are left out). Each top-level name,
// and each method and struct field or interface method of a type as
// "Type.Name", maps to the node that declares it: the FuncDecl of a
// function or method, the spec of a type, const or var, the field of a
// member.
func packageDecls(t *testing.T, files []string) map[string]map[string]ast.Node {
	t.Helper()
	decls := map[string]map[string]ast.Node{}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			continue
		}
		if decls[pkg] == nil {
			decls[pkg] = map[string]ast.Node{}
		}
		add := func(name string, n ast.Node) { decls[pkg][name] = n }
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name.Name, decl)
					continue
				}
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					add(id.Name+"."+decl.Name.Name, decl)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec)
						var members []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, field := range members {
							for _, id := range field.Names {
								add(spec.Name.Name+"."+id.Name, field)
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, spec)
						}
					}
				}
			}
		}
	}
	return decls
}
