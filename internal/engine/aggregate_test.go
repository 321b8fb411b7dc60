package engine

import (
	"fmt"
	"strings"
	"testing"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

func aggDB(t *testing.T) *Engine {
	t.Helper()
	db := storage.NewDB("agg")
	eng := New(db)
	if _, err := eng.ExecSQL(`
		CREATE TABLE sales (region VARCHAR, amount INTEGER, bonus REAL);
		INSERT INTO sales VALUES
			('east', 10, 1.5), ('east', 20, NULL), ('west', 5, 2.0),
			('west', NULL, 0.5), ('north', 7, 1.0);
	`); err != nil {
		t.Fatal(err)
	}
	return eng
}

func one(t *testing.T, eng *Engine, q string) sqltypes.Row {
	t.Helper()
	res, err := eng.QuerySQL(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%q: %d rows, want 1", q, len(res.Rows))
	}
	return res.Rows[0]
}

func TestAggregateProjection(t *testing.T) {
	eng := aggDB(t)
	row := one(t, eng, "SELECT COUNT(*), COUNT(amount), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM sales")
	if row[0].Int() != 5 {
		t.Errorf("COUNT(*) = %s", row[0])
	}
	if row[1].Int() != 4 {
		t.Errorf("COUNT(amount) = %s (NULL must not count)", row[1])
	}
	if row[2].Int() != 42 {
		t.Errorf("SUM = %s", row[2])
	}
	if row[3].Int() != 5 || row[4].Int() != 20 {
		t.Errorf("MIN/MAX = %s/%s", row[3], row[4])
	}
	if row[5].Float() != 10.5 {
		t.Errorf("AVG = %s", row[5])
	}
}

func TestAggregateWithWhere(t *testing.T) {
	eng := aggDB(t)
	row := one(t, eng, "SELECT COUNT(*) FROM sales WHERE region = 'east'")
	if row[0].Int() != 2 {
		t.Errorf("filtered COUNT = %s", row[0])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	eng := aggDB(t)
	row := one(t, eng, "SELECT COUNT(*), SUM(amount), MIN(amount), AVG(amount) FROM sales WHERE region = 'nowhere'")
	if row[0].Int() != 0 {
		t.Errorf("COUNT of empty = %s", row[0])
	}
	for i := 1; i < 4; i++ {
		if !row[i].IsNull() {
			t.Errorf("aggregate %d of empty = %s, want NULL", i, row[i])
		}
	}
}

func TestAggregateFloatSum(t *testing.T) {
	eng := aggDB(t)
	row := one(t, eng, "SELECT SUM(bonus) FROM sales")
	if row[0].Kind() != sqltypes.KindFloat || row[0].Float() != 5.0 {
		t.Errorf("SUM(bonus) = %s", row[0])
	}
}

func TestScalarSubqueryComparison(t *testing.T) {
	eng := aggDB(t)
	res, err := eng.QuerySQL(`
		SELECT DISTINCT s.region FROM sales AS s
		WHERE (SELECT COUNT(*) FROM sales AS x WHERE x.region = s.region) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("regions with >1 sale: %v", res.Rows)
	}
}

func TestScalarSubqueryZeroRowsIsNull(t *testing.T) {
	eng := aggDB(t)
	res, err := eng.QuerySQL(`
		SELECT region FROM sales
		WHERE (SELECT x.amount FROM sales AS x WHERE x.region = 'nowhere') = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("NULL scalar compared true: %v", res.Rows)
	}
}

func TestScalarSubqueryMultiRowErrors(t *testing.T) {
	eng := aggDB(t)
	_, err := eng.QuerySQL(`SELECT region FROM sales WHERE (SELECT amount FROM sales) = 5`)
	if err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Errorf("want multi-row error, got %v", err)
	}
}

func TestCoalesce(t *testing.T) {
	eng := aggDB(t)
	row := one(t, eng, `SELECT COALESCE((SELECT SUM(amount) FROM sales WHERE region = 'nowhere'), 0) + 1 FROM sales WHERE region = 'north'`)
	if row[0].Int() != 1 {
		t.Errorf("COALESCE sum = %s", row[0])
	}
}

func TestAggregateArithmeticDecomposition(t *testing.T) {
	// The exact expression shape sqlgen emits for new-state counts.
	eng := aggDB(t)
	res, err := eng.QuerySQL(`
		SELECT region FROM sales
		WHERE ((SELECT COUNT(*) FROM sales AS a) + (SELECT COUNT(*) FROM sales AS b)
		       - (SELECT COUNT(*) FROM sales AS c)) = 5 AND region = 'north'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("decomposed count: %v", res.Rows)
	}
}

func TestMixedAggregateAndPlainProjectionRejected(t *testing.T) {
	eng := aggDB(t)
	if _, err := eng.QuerySQL("SELECT region, COUNT(*) FROM sales"); err == nil {
		t.Error("mixed projection accepted (no GROUP BY support)")
	}
}

func TestAggregateOutsideProjectionRejected(t *testing.T) {
	eng := aggDB(t)
	if _, err := eng.QuerySQL("SELECT region FROM sales WHERE COUNT(*) > 1"); err == nil {
		t.Error("bare aggregate in WHERE accepted")
	}
}

// TestAggregateSubqueryAllocFree: a correlated aggregate subquery runs once
// per outer row, into states and a sink its exec owns and resets, so a warm
// plan evaluates it without allocating.
func TestAggregateSubqueryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := aggDB(t)
	if _, err := eng.ExecSQL(`CREATE VIEW big AS SELECT s.region FROM sales AS s
		WHERE (SELECT SUM(x.amount) FROM sales AS x WHERE x.region = s.region) > 100
		   OR (SELECT COUNT(*) FROM sales AS x WHERE x.region = s.region AND x.bonus > 1.0) > 3
		   OR (SELECT AVG(x.bonus) FROM sales AS x WHERE x.region = s.region) > 5
		   OR (SELECT MAX(x.amount) FROM sales AS x WHERE x.region = s.region) < 0;`); err != nil {
		t.Fatal(err)
	}
	p, err := eng.PrepareView("big")
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		if found, err := p.NonEmpty(); err != nil || found {
			panic(fmt.Sprint("the view holds rows or failed: ", err))
		}
	}
	check()
	if n := allocsDuring(check); n != 0 {
		t.Fatalf("a warm plan evaluating 4 aggregate subqueries per outer row allocated %d times", n)
	}
}
