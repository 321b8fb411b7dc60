package storage

import (
	"slices"
	"strings"
	"testing"

	"tintin/internal/sqltypes"
)

// FuzzHashIndex drives one index through random adds, removes, clears and
// grows against a map[string][]int model whose buckets append and
// swap-remove, and after every step compares each key's bucket with the
// model's, in order. Each input runs twice: once with the seeded hash, and
// once with every hash narrowed to one of four values, so that nearly every
// probe meets colliding entries that only the key verification tells apart,
// and every removal shifts a long probe run back.
//
// Each input byte pair is one step: the first byte picks the operation, the
// second its argument (one of 16 keys, 0 to 60 bytes long, or a live slot).
// Inputs are cut to 128 steps: every step costs 32 lookups, and the fuzzer
// minimizes each new input by rerunning it.
//
// Run with:
//
//	go test ./internal/storage -fuzz=FuzzHashIndex -fuzztime=60s
func FuzzHashIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 2, 2, 0, 0, 1, 2, 1})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 2, 3, 2, 0, 3, 1, 0, 9})
	f.Add([]byte{1, 15, 1, 14, 1, 15, 3, 0, 2, 1, 1, 13, 3, 1, 2, 0, 2, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 256)]
		for _, mask := range []uint64{^uint64(0), 3} {
			runIndexModel(t, ops, mask)
		}
	})
}

func runIndexModel(t *testing.T, ops []byte, mask uint64) {
	s, err := NewSchema("f", []Column{{Name: "k", Type: sqltypes.KindString}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s)
	ix := newIndex(tb, []int{0})
	ix.hashMask = mask
	key := func(b byte) string { return strings.Repeat("k", int(b%16)*4) }

	model := map[string][]int{}
	var live, free []int // the slots in the index, and the slots to reuse
	var scratch []byte
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step]%4, ops[step+1]
		switch {
		case op < 2 || len(live) == 0 && op == 2: // add
			k := key(arg)
			row := sqltypes.Row{sqltypes.NewString(k)}
			slot := len(tb.rows)
			if n := len(free); n > 0 {
				slot, free = free[n-1], free[:n-1]
				tb.rows[slot] = row
			} else {
				tb.rows = append(tb.rows, row)
			}
			ix.add(row, slot)
			model[k] = append(model[k], slot)
			live = append(live, slot)
		case op == 2: // remove
			i := int(arg) % len(live)
			slot := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			free = append(free, slot)
			k := tb.rows[slot][0].Str()
			ix.remove(tb.rows[slot], slot)
			b := model[k]
			j := slices.Index(b, slot)
			b[j] = b[len(b)-1]
			if b = b[:len(b)-1]; len(b) == 0 {
				delete(model, k)
			} else {
				model[k] = b
			}
		case arg%2 == 0:
			if len(ix.entries) < 1<<10 { // each grow doubles the entries
				ix.grow()
			}
		default:
			ix.clear()
			clear(model)
			free, live = append(free, live...), live[:0]
		}

		if ix.n != len(model) {
			t.Fatalf("mask %#x, step %d: the index holds %d keys, the model %d", mask, step/2, ix.n, len(model))
		}
		for b := byte(0); b < 16; b++ {
			k := key(b)
			got := ix.lookup(&scratch, []sqltypes.Value{sqltypes.NewString(k)}, nil)
			if !slices.Equal(got, model[k]) {
				t.Fatalf("mask %#x, step %d: key of %d bytes: bucket %v, model %v", mask, step/2, len(k), got, model[k])
			}
		}
	}
}
