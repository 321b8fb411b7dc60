package logic

import (
	"fmt"
	"testing"

	"tintin/internal/sqltypes"
)

// TestRuleInstantiate inlines d(X) <- lineitem(X,N,Q) and Q > 0 at two
// call sites: one whose argument is named like the rule's local N, which
// must not be captured by it, and one with a constant argument.
func TestRuleInstantiate(t *testing.T) {
	rule := Rule{
		Head: Atom{Kind: PredDerived, Name: "d", Args: []Term{Var("X")}},
		Body: Body{
			Lits:     []Literal{{Atom: Atom{Kind: PredBase, Name: "lineitem", Args: []Term{Var("X"), Var("N"), Var("Q")}}}},
			Builtins: []Builtin{{Op: CmpGt, L: Var("Q"), R: Const(sqltypes.NewInt(0))}},
		},
	}
	for _, tc := range []struct {
		name string
		arg  Term
		want string
	}{
		{"argument named like a local", Var("N"), "lineitem(N,L$2,L$3) and L$3 > 0"},
		{"constant argument", Const(sqltypes.NewInt(7)), "lineitem(7,L$2,L$3) and L$3 > 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			fresh := func(prefix string) string {
				n++
				return fmt.Sprintf("%s%d", prefix, n)
			}
			body, err := rule.Instantiate([]Term{tc.arg}, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if got := body.String(); got != tc.want {
				t.Errorf("instantiated body = %q, want %q", got, tc.want)
			}
			if rule.Body.String() != "lineitem(X,N,Q) and Q > 0" {
				t.Errorf("Instantiate changed the rule: %s", rule.Body)
			}
		})
	}
}
