package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// nullSafeDB builds t(a, b, c) holding every combination of {NULL, 1, 2} per
// column (some twice) and, under capture, stages a random half of those
// combinations in t's deletion event table del_t, NULLs included.
func nullSafeDB(t *testing.T) (*storage.DB, *Engine) {
	t.Helper()
	db := storage.NewDB("nullsafe")
	eng := New(db)
	if _, err := eng.ExecSQL(`CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER)`); err != nil {
		t.Fatal(err)
	}
	dom := []sqltypes.Value{sqltypes.Null, sqltypes.NewInt(1), sqltypes.NewInt(2)}
	rng := rand.New(rand.NewSource(7))
	var deleted []sqltypes.Row
	for _, a := range dom {
		for _, b := range dom {
			for _, c := range dom {
				row := sqltypes.Row{a, b, c}
				for n := 1 + rng.Intn(2); n > 0; n-- {
					if err := db.Insert("t", row); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(2) == 0 {
					deleted = append(deleted, row)
				}
			}
		}
	}
	db.EnableCapture()
	for _, row := range deleted {
		if _, err := db.DeleteWhere("t", func(r sqltypes.Row) bool { return sqltypes.IdenticalRows(r, row) }); err != nil {
			t.Fatal(err)
		}
	}
	return db, eng
}

// antiJoinOracle computes, in Go, the rows of t with no del_t row matching
// under match.
func antiJoinOracle(db *storage.DB, match func(t, d sqltypes.Row) bool) []sqltypes.Row {
	var out []sqltypes.Row
	del := db.MustTable("del_t").Rows()
	for _, r := range db.MustTable("t").Rows() {
		found := false
		for _, d := range del {
			if match(r, d) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, r)
		}
	}
	return out
}

// innerSource returns the explain entry of the (single) source of the view's
// first subplan: the anti-join's inner side.
func innerSource(t *testing.T, eng *Engine, view string) ExplainSource {
	t.Helper()
	ep, err := eng.ExplainView(view)
	if err != nil {
		t.Fatal(err)
	}
	return ep.Branches[0].Subplans[0].Branches[0].Sources[0]
}

// TestNullSafeProbeParity: the NULL-safe row match sqlgen emits for T ∧ ¬del_T
// is answered by an index probe, and returns exactly the rows the same
// predicate returns as a filter — with probes disabled, spelled so the
// planner cannot recognise it, and computed outside the engine.
func TestNullSafeProbeParity(t *testing.T) {
	const from = `SELECT * FROM t AS x WHERE NOT EXISTS (SELECT * FROM del_t AS d WHERE `
	// Row identity spelled so the planner sees no column on either side of
	// the equality (-1 occurs nowhere in the data).
	const identityByHand = `COALESCE(d.a, -1) = COALESCE(x.a, -1)
	                    AND COALESCE(d.b, -1) = COALESCE(x.b, -1)
	                    AND COALESCE(d.c, -1) = COALESCE(x.c, -1)`
	identity := func(x, d sqltypes.Row) bool { return sqltypes.IdenticalRows(x, d) }
	cases := []struct {
		name     string
		where    string   // the recognisable spelling
		byHand   string   // the same predicate, opaque to the planner
		nullSafe []bool   // expected probe mask, in probe order
		cols     []string // expected probe columns
		match    func(x, d sqltypes.Row) bool
	}{
		{
			name: "generated",
			where: `(d.a = x.a OR d.a IS NULL AND x.a IS NULL)
			    AND (d.b = x.b OR d.b IS NULL AND x.b IS NULL)
			    AND (d.c = x.c OR d.c IS NULL AND x.c IS NULL)`,
			byHand:   identityByHand,
			nullSafe: []bool{true, true, true},
			cols:     []string{"a", "b", "c"},
			match:    identity,
		},
		{
			// Operands swapped in the equality, in the IS NULL pair, in both,
			// and the two halves of the OR swapped.
			name: "operand orders",
			where: `(x.a = d.a OR d.a IS NULL AND x.a IS NULL)
			    AND (d.b = x.b OR x.b IS NULL AND d.b IS NULL)
			    AND (x.c IS NULL AND d.c IS NULL OR x.c = d.c)`,
			byHand:   identityByHand,
			nullSafe: []bool{true, true, true},
			cols:     []string{"a", "b", "c"},
			match:    identity,
		},
		{
			// One level mixing a plain probe with NULL-safe ones: a NULL under
			// the plain column still matches nothing.
			name: "mixed",
			where: `d.a = x.a
			    AND (d.b = x.b OR d.b IS NULL AND x.b IS NULL)
			    AND (d.c = x.c OR d.c IS NULL AND x.c IS NULL)`,
			byHand: `COALESCE(d.a, -1) = COALESCE(x.a, -2)
			     AND COALESCE(d.b, -1) = COALESCE(x.b, -1)
			     AND COALESCE(d.c, -1) = COALESCE(x.c, -1)`,
			nullSafe: []bool{false, true, true},
			cols:     []string{"a", "b", "c"},
			match: func(x, d sqltypes.Row) bool {
				return sqltypes.Equal(x[0], d[0]) && sqltypes.IdenticalRows(x[1:], d[1:])
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, eng := nullSafeDB(t)
			want := sortedRows(antiJoinOracle(db, tc.match))
			if len(want) == 0 || len(want) == db.MustTable("t").Len() {
				t.Fatalf("degenerate fixture: %d of %d rows survive", len(want), db.MustTable("t").Len())
			}
			createView(t, db, "probed", from+tc.where+")")
			createView(t, db, "byhand", from+tc.byHand+")")

			src := innerSource(t, eng, "probed")
			if src.Access != "probe" || !reflect.DeepEqual(src.ProbeColumns, tc.cols) ||
				!reflect.DeepEqual(src.ProbeNullSafe, tc.nullSafe) || len(src.Filters) != 0 {
				t.Fatalf("inner side planned as %+v, want a probe on %v with mask %v and no filter",
					src, tc.cols, tc.nullSafe)
			}
			if src := innerSource(t, eng, "byhand"); src.Access != "scan" {
				t.Fatalf("hand-written spelling planned as %+v, want a scan", src)
			}

			run := func(label, view string) {
				t.Helper()
				res, err := eng.QueryView(view)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
				}
			}
			run("probes on", "probed")
			run("by hand", "byhand")

			p, err := eng.PrepareView("probed")
			if err != nil {
				t.Fatal(err)
			}
			clone, err := p.Clone().Query()
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedRows(clone.Rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("Clone():\n got %v\nwant %v", got, want)
			}

			eng.DisableIndexProbes = true
			if src := innerSource(t, eng, "probed"); src.Access != "scan" || len(src.Filters) != 3 {
				t.Fatalf("DisableIndexProbes: inner side planned as %+v, want a scan with 3 filters", src)
			}
			run("probes off", "probed")
			run("by hand, probes off", "byhand")
		})
	}
}

// TestNullSafeNearMissStaysFilter: a = b OR (a IS NULL AND c IS NULL) is not
// a NULL-safe equality of a and b — it also accepts (NULL, b) whenever c is
// NULL — so it must be evaluated as written.
func TestNullSafeNearMissStaysFilter(t *testing.T) {
	db, eng := nullSafeDB(t)
	const q = `SELECT * FROM t AS x WHERE NOT EXISTS (SELECT * FROM del_t AS d
	             WHERE d.a = x.a OR d.a IS NULL AND x.c IS NULL)`
	createView(t, db, "nearmiss", q)
	src := innerSource(t, eng, "nearmiss")
	if src.Access != "scan" || len(src.Filters) != 1 || src.ProbeColumns != nil {
		t.Fatalf("near-miss planned as %+v, want a scan with the conjunct as its filter", src)
	}
	want := sortedRows(antiJoinOracle(db, func(x, d sqltypes.Row) bool {
		return sqltypes.Equal(d[0], x[0]) || d[0].IsNull() && x[2].IsNull()
	}))
	res, err := eng.QueryView("nearmiss")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("near-miss rows:\n got %v\nwant %v", got, want)
	}
	for _, neg := range []string{
		`d.a = x.a OR d.a IS NOT NULL AND x.a IS NULL`,
		`d.a <> x.a OR d.a IS NULL AND x.a IS NULL`,
		`d.a = x.a AND (d.a IS NULL OR x.a IS NULL)`,
	} {
		createView(t, db, "neg", `SELECT * FROM t AS x WHERE NOT EXISTS (SELECT * FROM del_t AS d WHERE `+neg+`)`)
		if src := innerSource(t, eng, "neg"); src.ProbeNullSafe != nil {
			t.Errorf("%s planned as a NULL-safe probe: %+v", neg, src)
		}
		if err := db.DropView("neg"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNullSafeMatchOverViewSource: a view in FROM has no index, so its probe
// conjuncts are matched row by row against the values evaluated once per
// outer row — NULL-safely where the conjunct was.
func TestNullSafeMatchOverViewSource(t *testing.T) {
	db, eng := nullSafeDB(t)
	createView(t, db, "gone", `SELECT d.a, d.b, d.c FROM del_t AS d`)
	createView(t, db, "viaview", `SELECT * FROM t AS x WHERE NOT EXISTS (SELECT * FROM gone AS g
	    WHERE g.a = x.a
	      AND (g.b = x.b OR g.b IS NULL AND x.b IS NULL)
	      AND (g.c = x.c OR g.c IS NULL AND x.c IS NULL))`)
	want := sortedRows(antiJoinOracle(db, func(x, d sqltypes.Row) bool {
		return sqltypes.Equal(x[0], d[0]) && sqltypes.IdenticalRows(x[1:], d[1:])
	}))
	for _, off := range []bool{false, true} {
		eng.DisableIndexProbes = off
		res, err := eng.QueryView("viaview")
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("DisableIndexProbes=%v:\n got %v\nwant %v", off, got, want)
		}
	}
}
