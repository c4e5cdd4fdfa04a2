package senkf

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	// fencedBlock is a ``` block; its contents are commands and programs,
	// not inline references.
	fencedBlock = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	// codeSpan is an inline `...` span and the text right after it.
	codeSpan = regexp.MustCompile("`([^`\n]+)`( \\(deleted, PR \\d+\\))?")
	// qualified is pkg.Ident or pkg.Type.Member with an exported Ident,
	// the method also written (*pkg.Type).Member or pkg.(*Type).Member; not
	// part of a path (internal/sim/sim.go) or a longer selector.
	qualified = regexp.MustCompile(`(?:^|[^\w./-])(?:\(\*)?([a-z][a-z0-9]*)\.(?:\(\*)?([A-Z]\w*)\)?(?:\.(\w+))?`)
)

// TestDocsNameRealSymbols resolves every `pkg.Ident` and `pkg.Type.Member`
// written in an inline code span of README.md and DESIGN.md against the
// module's Go files. A span for a package the module does not define (the
// standard library) is not checked; a deliberate mention of code that is
// gone reads "`pkg.Ident` (deleted, PR n)".
func TestDocsNameRealSymbols(t *testing.T) {
	syms := packageDecls(t, moduleGoFiles(t))
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllStringFunc(string(b), func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for i, line := range strings.Split(text, "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				if span[2] != "" {
					continue
				}
				for _, m := range qualified.FindAllStringSubmatch(span[1], -1) {
					pkg, name, member := m[1], m[2], m[3]
					known, ok := syms[pkg]
					if !ok {
						continue
					}
					if _, ok := known[name]; !ok {
						t.Errorf("%s:%d: `%s` names %s.%s, which does not exist", doc, i+1, span[1], pkg, name)
						continue
					}
					if _, ok := known[name+"."+member]; member != "" && !ok {
						t.Errorf("%s:%d: `%s` names %s.%s.%s, which does not exist", doc, i+1, span[1], pkg, name, member)
					}
				}
			}
		}
	}
}
