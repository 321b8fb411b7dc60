package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix is the suppression directive marker. Like //go:build, the
// directive form has no space between // and the marker.
const allowPrefix = "//tintin:allow"

// AllowAnalyzer reports malformed //tintin:allow directives (unknown
// analyzer names, missing reason). A directive
// `//tintin:allow <analyzer>[,<analyzer>] <reason>` on a flagged line (or
// the line above it) suppresses those analyzers' diagnostics there. The
// reason string is mandatory: a suppression is an argument for why the
// invariant holds anyway, and it must be written down where the next
// reader will look. The driver indexes every package's directives before
// any analyzer runs; this analyzer reports the ones the index dropped.
var AllowAnalyzer = &Analyzer{
	Name: "tintinallow",
	run: func(pass *pass) {
		for _, m := range pass.allow.malformed {
			pass.report(m.pos, m.msg)
		}
	},
}

// allowIndex records, per file-and-line, which analyzers have an active
// suppression directive.
type allowIndex struct {
	fset *token.FileSet
	// byLine maps filename → line → analyzer names allowed on that line.
	byLine map[string]map[int]map[string]bool
	// malformed holds the directives that suppress nothing, with why.
	malformed []malformedDirective
}

type malformedDirective struct {
	pos token.Pos
	msg string
}

// allows reports whether a diagnostic from the named analyzer at pos is
// covered by a directive on the same line or the line immediately above.
func (ix *allowIndex) allows(name string, pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	p := ix.fset.Position(pos)
	lines := ix.byLine[p.Filename]
	if lines == nil {
		return false
	}
	return lines[p.Line][name] || lines[p.Line-1][name]
}

// newAllowIndex indexes the directives in files.
func newAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	ix := &allowIndex{fset: fset, byLine: map[string]map[int]map[string]bool{}}
	bad := func(pos token.Pos, why string) {
		ix.malformed = append(ix.malformed, malformedDirective{pos, "malformed " + allowPrefix + " directive: " + why})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := c.Text[len(allowPrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //tintin:allowance — not the directive
				}
				names, reason := splitDirective(rest)
				if len(names) == 0 {
					bad(c.Pos(), "missing analyzer name")
					continue
				}
				ok := true
				for _, n := range names {
					if !analyzerNames[n] {
						bad(c.Pos(), fmt.Sprintf("unknown analyzer %q", n))
						ok = false
					}
				}
				if reason == "" {
					bad(c.Pos(), "a reason is required after the analyzer name")
					ok = false
				}
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				lines := ix.byLine[p.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ix.byLine[p.Filename] = lines
				}
				set := lines[p.Line]
				if set == nil {
					set = map[string]bool{}
					lines[p.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return ix
}

// splitDirective parses " name1,name2 the reason text" into the analyzer
// names and the trailing reason.
func splitDirective(rest string) (names []string, reason string) {
	rest = strings.TrimSpace(rest)
	nameField, reason, _ := strings.Cut(rest, " ")
	for _, n := range strings.Split(nameField, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(reason)
}
