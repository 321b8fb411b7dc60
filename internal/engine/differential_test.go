package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// TestIndexProbesMatchScans builds random two-table databases and runs a
// panel of join/subquery/negation queries twice — once with index-nested-
// loop probes and once with plain scans — requiring identical result bags.
// This pins the planner's probe path to the semantics of the naive
// evaluator.
func TestIndexProbesMatchScans(t *testing.T) {
	queries := []string{
		"SELECT * FROM a",
		"SELECT a.x, b.y FROM a, b WHERE b.x = a.x",
		"SELECT a.x FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x)",
		"SELECT a.x FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.x = a.x)",
		"SELECT a.x FROM a WHERE a.x IN (SELECT b.y FROM b)",
		"SELECT a.x FROM a WHERE a.x NOT IN (SELECT b.y FROM b)",
		"SELECT a.x FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x AND b.y > a.y)",
		"SELECT a.x, a.y FROM a WHERE a.y IS NULL",
		"SELECT DISTINCT a.x FROM a, b WHERE b.x = a.x AND b.y <> a.y",
		"SELECT a.x FROM a WHERE a.x IN (SELECT b.x FROM b WHERE b.y = a.y)",
		"SELECT a.x FROM a UNION SELECT b.x FROM b",
		"SELECT a1.x FROM a AS a1, a AS a2 WHERE a2.y = a1.y AND a2.x <> a1.x",
		// Key-set ranges: two-sided, BETWEEN, either operand order, empty.
		"SELECT a.x, a.y FROM a WHERE a.x >= 2 AND a.x < 7",
		"SELECT a.x, a.y FROM a WHERE a.y BETWEEN 1 AND 4",
		"SELECT a.x FROM a WHERE 7 > a.x AND 2 <= a.x",
		"SELECT a.x FROM a WHERE a.x > 6 AND a.x <= 3",
		// Bounds that send the level back to a scan: NULL, REAL, a range
		// wider than the index has keys, the full INTEGER range.
		"SELECT a.x FROM a WHERE a.x >= NULL AND a.x < 5",
		"SELECT a.x FROM a WHERE a.x > 1.5 AND a.x < 6.5",
		"SELECT a.x FROM a WHERE a.x >= -100 AND a.x <= 100",
		"SELECT a.x FROM a WHERE a.x >= -9223372036854775808 AND a.x <= 9223372036854775807",
		// Bounds at the edges of INTEGER: strict bounds that overflow.
		"SELECT a.x FROM a WHERE a.x > 9223372036854775807 AND a.x < 5",
		"SELECT a.x FROM a WHERE a.x < -9223372036854775808 AND a.x >= 0",
		"SELECT a.x FROM a WHERE a.x >= 9223372036854775806 AND a.x <= 9223372036854775807",
		"SELECT a.x FROM a WHERE a.x >= -9223372036854775808 AND a.x <= -9223372036854775807",
		// A VARCHAR range is never a key set.
		"SELECT a.x FROM a WHERE a.s >= '2' AND a.s < '7'",
		// Bounds from an outer source: a join and a correlated EXISTS.
		"SELECT a.x, b.x FROM a, b WHERE b.x > a.x AND b.x < a.x + 3",
		"SELECT a.x FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x >= a.y AND b.x <= a.y + 2)",
		"SELECT a.x FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.x BETWEEN a.x - 1 AND a.x + 1 AND b.y > a.y)",
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 40; round++ {
		db := storage.NewDB("d")
		mkTable(t, db, "a", rng, 30)
		mkTable(t, db, "b", rng, 30)
		probed := New(db)
		scanner := New(db)
		scanner.DisableIndexProbes = true
		for _, q := range queries {
			r1, err := probed.QuerySQL(q)
			if err != nil {
				t.Fatalf("probed %q: %v", q, err)
			}
			r2, err := scanner.QuerySQL(q)
			if err != nil {
				t.Fatalf("scan %q: %v", q, err)
			}
			if s1, s2 := canonical(r1), canonical(r2); s1 != s2 {
				t.Fatalf("round %d: %q differs:\nprobed: %s\nscan:   %s", round, q, s1, s2)
			}
		}
		for _, capture := range []bool{false, true} {
			compareDeletes(t, round, db, capture, rng)
		}
	}
}

// deleteTemplates are the DELETE leg's statements, each filled with two
// random integers: ranges (key sets and scans), equality probes, plain
// filters, and subqueries over the target table itself.
var deleteTemplates = []string{
	"DELETE FROM a WHERE x >= %d AND x < %d",
	"DELETE FROM a WHERE x BETWEEN %d AND %d",
	"DELETE FROM a AS t WHERE t.y > %d AND t.y <= %d",
	"DELETE FROM a WHERE x = %d OR y = %d",
	"DELETE FROM a WHERE y = %d AND x > %d",
	"DELETE FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x AND b.y BETWEEN %d AND %d)",
	"DELETE FROM a WHERE EXISTS (SELECT * FROM a AS u WHERE u.x = a.x - %d AND u.y >= %d)",
	"DELETE FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE b.x >= a.x - %d AND b.x <= a.x + %d)",
}

// compareDeletes runs the same random DELETEs through a probing engine and
// a scanning one, each over its own clone of db, and requires the same
// RowsAffected from every statement and the same outcome: the staged del_a
// bag under capture, the base table otherwise.
func compareDeletes(t *testing.T, round int, db *storage.DB, capture bool, rng *rand.Rand) {
	t.Helper()
	engines := [2]*Engine{New(db.Clone()), New(db.Clone())}
	engines[1].DisableIndexProbes = true
	outcome := "a"
	if capture {
		outcome = storage.DelTable("a")
		for _, eng := range engines {
			eng.DB().EnableCapture()
		}
	}
	for i := 0; i < 3; i++ {
		stmt := fmt.Sprintf(deleteTemplates[rng.Intn(len(deleteTemplates))], rng.Intn(14)-2, rng.Intn(14)-2)
		var affected [2]int
		for j, eng := range engines {
			res, err := eng.ExecSQL(stmt)
			if err != nil {
				t.Fatalf("round %d, capture %v: %q: %v", round, capture, stmt, err)
			}
			affected[j] = res[0].RowsAffected
		}
		if affected[0] != affected[1] {
			t.Fatalf("round %d, capture %v: %q affected %d rows probed, %d scanned", round, capture, stmt, affected[0], affected[1])
		}
	}
	probed, scanned := tableBag(engines[0].DB(), outcome), tableBag(engines[1].DB(), outcome)
	if probed != scanned {
		t.Fatalf("round %d, capture %v: %s differs:\nprobed:  %s\nscanned: %s", round, capture, outcome, probed, scanned)
	}
}

// tableBag renders a table's rows as a sorted list.
func tableBag(db *storage.DB, name string) string {
	return canonical(&Result{Rows: db.MustTable(name).Rows()})
}

func mkTable(t *testing.T, db *storage.DB, name string, rng *rand.Rand, n int) {
	t.Helper()
	s, err := storage.NewSchema(name, []storage.Column{
		{Name: "x", Type: sqltypes.KindInt},
		{Name: "y", Type: sqltypes.KindInt},
		{Name: "s", Type: sqltypes.KindString},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := rng.Intn(n)
	for i := 0; i < rows; i++ {
		y := sqltypes.NewInt(int64(rng.Intn(6)))
		if rng.Intn(8) == 0 {
			y = sqltypes.Null
		}
		x := rng.Intn(10)
		if err := tb.Insert(sqltypes.Row{sqltypes.NewInt(int64(x)), y, sqltypes.NewString(strconv.Itoa(x))}); err != nil {
			t.Fatal(err)
		}
	}
}

func canonical(r *Result) string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestCorrelatedInNotMemoized pins the correlated-IN path: the subquery
// result depends on the outer row, so memoization must not kick in.
func TestCorrelatedInNotMemoized(t *testing.T) {
	db := storage.NewDB("d")
	eng := New(db)
	if _, err := eng.ExecSQL(`
		CREATE TABLE a (x INTEGER, y INTEGER);
		CREATE TABLE b (x INTEGER, y INTEGER);
		INSERT INTO a VALUES (1, 10), (2, 20);
		INSERT INTO b VALUES (1, 10), (2, 99);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.QuerySQL("SELECT a.x FROM a WHERE a.x IN (SELECT b.x FROM b WHERE b.y = a.y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("correlated IN wrong: %v", res.Rows)
	}
}

// TestUncorrelatedInMemoizedOnce verifies the memoized path returns correct
// results across many outer rows (including NOT IN null semantics).
func TestUncorrelatedInMemoized(t *testing.T) {
	db := storage.NewDB("d")
	eng := New(db)
	if _, err := eng.ExecSQL(`
		CREATE TABLE a (x INTEGER);
		CREATE TABLE b (x INTEGER);
		INSERT INTO a VALUES (1), (2), (3), (4);
		INSERT INTO b VALUES (2), (4);
	`); err != nil {
		t.Fatal(err)
	}
	res, err := eng.QuerySQL("SELECT a.x FROM a WHERE a.x NOT IN (SELECT b.x FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	if canonical(res) != "[(1) (3)]" {
		t.Errorf("NOT IN: %v", canonical(res))
	}
	// A NULL in the subquery poisons NOT IN entirely.
	if _, err := eng.ExecSQL("INSERT INTO b VALUES (NULL)"); err != nil {
		t.Fatal(err)
	}
	res, err = eng.QuerySQL("SELECT a.x FROM a WHERE a.x NOT IN (SELECT b.x FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN with NULL must be empty, got %v", canonical(res))
	}
	// ...but IN still finds members.
	res, err = eng.QuerySQL("SELECT a.x FROM a WHERE a.x IN (SELECT b.x FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	if canonical(res) != "[(2) (4)]" {
		t.Errorf("IN with NULL: %v", canonical(res))
	}
}
