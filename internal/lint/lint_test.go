package lint_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tintin/internal/lint"
	"tintin/internal/lint/linttest"
)

// Each analyzer is pinned against a seeded-violation fixture under
// testdata/src: at least one true positive (a `// want` line) and one
// //tintin:allow-suppressed false positive (a violating line with no
// want) per analyzer.

func TestHotPathCompile(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.HotPathCompileAnalyzer},
		"./internal/lint/testdata/src/hotpath/internal/core")
}

func TestObsDirect(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.ObsDirectAnalyzer},
		"./internal/lint/testdata/src/obsreg/internal/core")
}

func TestErrPrefix(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.ErrPrefixAnalyzer},
		"./internal/lint/testdata/src/errprefix")
}

func TestValueCompare(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.ValueCompareAnalyzer},
		"./internal/lint/testdata/src/valuecmp")
}

func TestNoDeterminism(t *testing.T) {
	linttest.Run(t, []*lint.Analyzer{lint.NoDeterminismAnalyzer},
		"./internal/lint/testdata/src/nodet/internal/engine")
}

// TestRepoClean is the self-check: the whole suite, run the way make lint
// runs it (lint.Check over ./..., test files included), must pass over the
// repo — every real violation fixed or carrying a reasoned suppression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repo; skipped in -short")
	}
	diags, err := lint.Check(linttest.ModuleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("tintinvet is not clean over ./...: %s", d)
	}
}

// waiverBudget is the number of //tintin:allow directives the tree may
// carry. Every waiver is an argument that an invariant holds anyway; the
// count only ratchets down — lower it when a waiver is removed, and fix the
// code rather than raise it.
const waiverBudget = 2

// TestWaiverBudget counts the suppression directives in shipped source
// (tests and analyzer fixtures seed violations on purpose) and fails when
// there are more than the budget.
func TestWaiverBudget(t *testing.T) {
	root := linttest.ModuleRoot(t)
	var sites []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || (n != "." && strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//tintin:allow ") {
				rel, _ := filepath.Rel(root, path)
				sites = append(sites, fmt.Sprintf("%s:%d", rel, i+1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > waiverBudget {
		t.Fatalf("%d //tintin:allow directives, budget is %d:\n%s", len(sites), waiverBudget, strings.Join(sites, "\n"))
	}
}
