package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDriverContract pins what make lint relies on: every finding prints
// once, sorted, as file:line:col: message, malformed directives included,
// and the exit status is 1 exactly when there is a finding.
func TestDriverContract(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./testdata/dirty/..."}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d over the dirty fixture, want 1 (stderr: %s)", code, stderr.String())
	}
	const file = "testdata/dirty/internal/engine/engine.go"
	want := []string{
		file + `:11:15: error message "bare" lacks a subsystem prefix (tintin:, ...) and does not wrap a cause via %w`,
		file + `:14:2: malformed //tintin:allow directive: a reason is required after the analyzer name`,
		file + `:15:9: time.Now in engine code: results must be a deterministic function of the snapshot`,
	}
	if got := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("output:\n%s\nwant:\n%s", stdout.String(), strings.Join(want, "\n"))
	}

	stdout.Reset()
	if code := run([]string{"./testdata/clean"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("clean fixture: exit status %d, output %q; want 0 and none (stderr: %s)", code, stdout.String(), stderr.String())
	}
}
