package difftest

import (
	"testing"
)

// lcgBytes derives a deterministic pseudo-random byte string from a small
// integer seed. Used to enumerate differential cases without time- or
// math/rand-dependence.
func lcgBytes(seed, n int) []byte {
	x := uint32(seed)*2654435761 + 12345
	out := make([]byte, n)
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

// TestDifferentialSweep runs a fixed battery of generated cases through the
// full oracle: incremental (serial, parallel, parallel fail-fast,
// fail-fast, group commit) against the non-incremental baseline. Any
// disagreement fails.
func TestDifferentialSweep(t *testing.T) {
	for seed := 0; seed < 120; seed++ {
		if err := Run(lcgBytes(seed, 96)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialTemplates pins one crafted case per assertion template by
// forcing the template-selection byte. Byte layout: [0]=shape flags,
// [1]=assertion count (1+b%3 → 0x00 is one assertion), [2]=template id,
// then literals/stream bytes.
func TestDifferentialTemplates(t *testing.T) {
	for tmpl := byte(0); tmpl < 10; tmpl++ {
		for _, flags := range []byte{0x00, 0x01, 0x02, 0x0e} {
			data := append([]byte{flags, 0x00, tmpl}, lcgBytes(int(tmpl)*16+int(flags), 80)...)
			if err := Run(data); err != nil {
				t.Fatalf("template %d flags %#x: %v", tmpl, flags, err)
			}
		}
	}
}

// TestRunEmptyInput: the all-zero stream (fuzzing's minimal input) must be
// a valid case.
func TestRunEmptyInput(t *testing.T) {
	if err := Run(nil); err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if err := Run(make([]byte, 4)); err != nil {
		t.Fatalf("short input: %v", err)
	}
}
