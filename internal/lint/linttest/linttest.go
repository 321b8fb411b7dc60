// Package linttest pins the tintinvet analyzers against seeded-violation
// fixtures: it runs the lint driver over fixture packages and diffs the
// diagnostics against `// want` comments, analysistest's convention:
//
//	_ = a == b // want `== on sqltypes\.Value`
//
// Every diagnostic must match a want regexp on its line and vice versa.
// Wants are read from every .go file in the fixture directories, test
// files included, so a fixture can pin what the driver reports there.
package linttest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tintin/internal/lint"
)

// Run runs the analyzers over the fixture packages at the given
// module-root-relative directories (plus, for facts, their dependencies)
// and matches diagnostics against `// want` comments. Diagnostics
// suppressed by //tintin:allow never reach the driver's output, so a
// suppressed fixture line simply carries no want comment.
func Run(t *testing.T, analyzers []*lint.Analyzer, dirs ...string) {
	t.Helper()
	root := ModuleRoot(t)
	diags, err := lint.Run(root, analyzers, dirs...)
	if err != nil {
		t.Fatal(err)
	}
	wants := readWants(t, root, dirs)
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, rx := range wants[k] {
			if rx.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for k, rest := range wants {
		for _, rx := range rest {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, rx)
		}
	}
}

// ModuleRoot walks up from the test's working directory to go.mod.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("linttest: no go.mod above test directory")
		}
		dir = parent
	}
}

type wantKey struct {
	file string
	line int
}

// wantStringRx extracts the quoted regexps of one `// want` comment.
var wantStringRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// readWants collects the want regexps of every .go file in dirs, per line.
func readWants(t *testing.T, root string, dirs []string) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no Go files in fixture %s (%v)", dir, err)
		}
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					idx := strings.Index(text, "want ")
					if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, lit := range wantStringRx.FindAllString(text[idx+len("want "):], -1) {
						pat, err := strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
						}
						rx, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						k := wantKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], rx)
					}
				}
			}
		}
	}
	return wants
}
