package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const allowSrc = `package p

func f() {
	_ = 1 //tintin:allow errprefix matched verbatim by an external contract
	//tintin:allow obsdirect,valuecompare caller holds the invariant
	_ = 2
	//tintin:allow
	_ = 3
	//tintin:allow freezethaw a directive naming a deleted analyzer
	_ = 4
	//tintin:allow errprefix
	_ = 5
	_ = 6
}
`

func TestAllowDirectiveParsing(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", allowSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ix := newAllowIndex(fset, []*ast.File{f})

	want := []string{
		"missing analyzer name",         // line 7: no names, no reason
		`unknown analyzer "freezethaw"`, // line 9: a stale directive
		"a reason is required",          // line 11: name but no reason
	}
	if len(ix.malformed) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(ix.malformed), len(want), ix.malformed)
	}
	for i, w := range want {
		if !strings.Contains(ix.malformed[i].msg, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, ix.malformed[i].msg, w)
		}
	}

	pos := func(line int) token.Pos {
		// Find any position on the given 1-based line.
		off := 0
		for i := 1; i < line; i++ {
			off += strings.Index(allowSrc[off:], "\n") + 1
		}
		return token.Pos(1 + off)
	}

	cases := []struct {
		name string
		line int
		want bool
	}{
		{"errprefix", 4, true},    // trailing same-line directive
		{"obsdirect", 6, true},    // directive on the line above
		{"valuecompare", 6, true}, // multi-analyzer directive
		{"errprefix", 6, false},   // not named by that directive
		{"obsdirect", 4, false},   // different analyzer's directive
		{"errprefix", 8, false},   // malformed: no effect
		{"freezethaw", 10, false},
		{"errprefix", 12, false}, // reasonless: no effect
		{"errprefix", 13, false}, // two lines below a directive
	}
	for _, c := range cases {
		if got := ix.allows(c.name, pos(c.line)); got != c.want {
			t.Errorf("allows(%q, line %d) = %v, want %v", c.name, c.line, got, c.want)
		}
	}
}

func TestSplitDirective(t *testing.T) {
	names, reason := splitDirective(" a,b  the reason")
	if len(names) != 2 || names[0] != "a" || names[1] != "b" || reason != "the reason" {
		t.Errorf("splitDirective = %v %q", names, reason)
	}
	names, reason = splitDirective("  only")
	if len(names) != 1 || names[0] != "only" || reason != "" {
		t.Errorf("splitDirective bare = %v %q", names, reason)
	}
}
