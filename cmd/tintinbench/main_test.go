package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickKeepsExplicitFlags runs E3 at -quick scale: -quick picks the
// configuration, and every flag given explicitly overrides its field.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "7"}, "(1GB ≡ 2000 orders, seed 7)"},
		{[]string{"-orders-per-gb", "1000"}, "(1GB ≡ 1000 orders, seed 42)"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		args := append([]string{"-exp", "e3", "-quick"}, c.args...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: header lacks %q:\n%s", args, c.want, out.String())
		}
		if !strings.Contains(out.String(), "E3: trivial-emptiness skip") {
			t.Errorf("%v: no E3 table:\n%s", args, out.String())
		}
	}
}

func TestUnknownExperimentErrors(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "e9", "-quick"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "e9"`) {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}
