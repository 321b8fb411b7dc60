// Command tintinvet runs the repo's custom static-analysis suite: the
// analyzers in internal/lint that mechanize the commit-path invariants
// previously enforced only by individual tests and benchmarks.
//
//	go run ./cmd/tintinvet ./...
//
// or simply `make lint`. The arguments are package patterns, resolved by
// the go command in the current directory; test files are analyzed too.
// Every finding prints once, sorted, as file:line:col: message, and the
// exit status is 1 when there are any (2 when the packages do not load).
// Suppress a diagnostic with
//
//	//tintin:allow <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tintin/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages matching patterns and returns the exit status.
func run(patterns []string, stdout, stderr io.Writer) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "tintinvet:", err)
		return 2
	}
	diags, err := lint.Check(wd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "tintinvet:", err)
		return 2
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
