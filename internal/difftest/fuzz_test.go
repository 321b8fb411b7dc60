package difftest

import (
	"testing"
)

// FuzzDifferential is the native-fuzzing entry point for the differential
// oracle: the input bytes deterministically drive schema, assertions and
// update stream, and the property is full agreement between the baseline
// checker and every incremental execution mode (serial, parallel, parallel
// fail-fast, fail-fast, group commit), including fail-fast witness
// determinism at both widths and identical committed state across all five
// databases.
//
// Run with:
//
//	go test ./internal/difftest -fuzz=FuzzDifferential -fuzztime=60s
//
// Minimized reproducers for bugs found this way are checked into
// testdata/fuzz/FuzzDifferential/ and run as regular seeds under go test.
func FuzzDifferential(f *testing.F) {
	// Broad pseudo-random seeds.
	for seed := 0; seed < 40; seed++ {
		f.Add(lcgBytes(seed, 96))
	}
	// One crafted seed per assertion template (byte 2 selects it), across
	// a few schema shapes (byte 0): NULL-able columns, declared FK.
	for tmpl := byte(0); tmpl < 10; tmpl++ {
		for _, flags := range []byte{0x00, 0x01} {
			f.Add(append([]byte{flags, 0x00, tmpl}, lcgBytes(int(tmpl)*8+int(flags), 64)...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return // long inputs add batches, not coverage; keep iterations fast
		}
		if err := Run(data); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzAttribution drives multi-session group commits: PK-disjoint deltas
// over row-local assertions, where every session's ack must match the
// verdict its delta would get alone, no matter how the committer batches
// them or how often a rejected batch is split.
func FuzzAttribution(f *testing.F) {
	for seed := 0; seed < 12; seed++ {
		f.Add(lcgBytes(seed+100, 64))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return
		}
		if err := RunAttribution(data); err != nil {
			t.Fatal(err)
		}
	})
}
