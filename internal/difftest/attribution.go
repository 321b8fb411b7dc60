package difftest

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tintin/internal/core"
	"tintin/internal/edc"
	"tintin/internal/engine"
	"tintin/internal/sched"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// RunAttribution exercises group-commit verdicts under a generated
// multi-session stream. The setup is deliberately restricted so that every
// delta has an order-independent reference verdict:
//
//   - assertions are row-local (a single inserted row violates or not,
//     independent of other rows), so deletes can never create violations;
//   - concurrent deltas are primary-key-disjoint, so they commute.
//
// Under those conditions each session's ack must equal the verdict its
// delta would receive alone — regardless of how the committer batches the
// sessions and regardless of how often a rejected batch is split before
// each delta's verdict is its own.
func RunAttribution(data []byte) error {
	r := &rdr{data: data}

	db := storage.NewDB("attr")
	ddl := "CREATE TABLE t (pk INTEGER NOT NULL, v INTEGER, s VARCHAR, PRIMARY KEY (pk));"
	if _, err := engine.New(db).ExecSQL(ddl); err != nil {
		return fmt.Errorf("ddl: %w", err)
	}
	tool := core.New(db, core.Options{EDC: edc.DefaultOptions(), SkipEmptyEventViews: true})
	if err := tool.Install(); err != nil {
		return fmt.Errorf("install: %w", err)
	}

	// Row-local assertions: violated exactly by the inserted rows below.
	assertions := []struct {
		name, sql string
		bad       func(row sqltypes.Row) bool
	}{
		{"neg", "CREATE ASSERTION neg CHECK (NOT EXISTS (SELECT * FROM t WHERE t.v < 0))",
			func(row sqltypes.Row) bool {
				cmp, ok := sqltypes.Compare(row[1], sqltypes.NewInt(0))
				return ok && cmp < 0
			}},
		{"big", "CREATE ASSERTION big CHECK (NOT EXISTS (SELECT * FROM t WHERE t.v > 100))",
			func(row sqltypes.Row) bool {
				cmp, ok := sqltypes.Compare(row[1], sqltypes.NewInt(100))
				return ok && cmp > 0
			}},
		{"bad", "CREATE ASSERTION bad CHECK (NOT EXISTS (SELECT * FROM t WHERE t.s = 'bad'))",
			func(row sqltypes.Row) bool { return sqltypes.Equal(row[2], sqltypes.NewString("bad")) }},
	}
	for _, a := range assertions {
		if _, err := tool.AddAssertion(a.sql); err != nil {
			return fmt.Errorf("assertion %s: %w", a.name, err)
		}
	}
	expectedSet := func(d sched.Delta) map[string]bool {
		out := map[string]bool{}
		for _, op := range d.Ops {
			if op.Delete {
				continue
			}
			for _, a := range assertions {
				if a.bad(op.Row) {
					out[a.name] = true
				}
			}
		}
		return out
	}

	committer := tool.NewCommitter()
	defer committer.Close()

	var live []sqltypes.Row
	nextPK := int64(1)
	genRow := func() sqltypes.Row {
		pk := nextPK
		nextPK++
		v := sqltypes.Null
		if !r.pct(15) {
			// Spread across the clean range and both violation thresholds.
			v = sqltypes.NewInt(int64(r.intn(140)) - 20)
		}
		s := sqltypes.Null
		if !r.pct(20) {
			s = sqltypes.NewString(strVals[r.intn(len(strVals))])
		}
		return sqltypes.Row{sqltypes.NewInt(pk), v, s}
	}

	rounds := 1 + r.intn(3)
	for round := 0; round < rounds; round++ {
		nSessions := 2 + r.intn(3)
		deltas := make([]sched.Delta, nSessions)
		for s := 0; s < nSessions; s++ {
			nOps := 1 + r.intn(4)
			for o := 0; o < nOps; o++ {
				// Deletes draw from the session's own residue class of the
				// live rows, keeping concurrent deltas PK-disjoint.
				var mine []sqltypes.Row
				for i, row := range live {
					if i%nSessions == s {
						mine = append(mine, row)
					}
				}
				already := func(row sqltypes.Row) bool {
					for _, op := range deltas[s].Ops {
						if op.Delete && sqltypes.IdenticalRows(op.Row, row) {
							return true
						}
					}
					return false
				}
				if r.pct(30) && len(mine) > 0 {
					row := mine[r.intn(len(mine))]
					if !already(row) {
						deltas[s].Ops = append(deltas[s].Ops, sched.Op{Table: "t", Row: row.Clone(), Delete: true})
						continue
					}
				}
				deltas[s].Ops = append(deltas[s].Ops, sched.Op{Table: "t", Row: genRow()})
			}
		}

		// Submit all sessions concurrently so the committer actually forms
		// multi-delta batches (grouping is timing-dependent; verdicts must
		// not be).
		acks := make([]*core.CommitResult, nSessions)
		errs := make([]error, nSessions)
		var wg sync.WaitGroup
		for s := 0; s < nSessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				acks[s], errs[s] = committer.Commit(deltas[s])
			}(s)
		}
		wg.Wait()

		for s := 0; s < nSessions; s++ {
			if errs[s] != nil {
				return fmt.Errorf("round %d session %d: %w", round, s, errs[s])
			}
			want := expectedSet(deltas[s])
			if acks[s].Committed != (len(want) == 0) {
				return fmt.Errorf("difftest: round %d session %d: committed=%v, expected %v (delta: %s)",
					round, s, acks[s].Committed, len(want) == 0, fmtOps(deltas[s].Ops))
			}
			if d := diffSets(violatedAssertions(acks[s]), want); d != "" {
				return fmt.Errorf("difftest: round %d session %d: attributed verdicts differ: %s (delta: %s)",
					round, s, d, fmtOps(deltas[s].Ops))
			}
		}

		// Fold accepted deltas into the model and require the database to
		// match it exactly.
		for s := 0; s < nSessions; s++ {
			if !acks[s].Committed {
				continue
			}
			for _, op := range deltas[s].Ops {
				if op.Delete {
					for i, row := range live {
						if sqltypes.IdenticalRows(row, op.Row) {
							live = append(live[:i:i], live[i+1:]...)
							break
						}
					}
				} else {
					live = append(live, op.Row)
				}
			}
		}
		var want []string
		for _, row := range live {
			want = append(want, row.String())
		}
		sort.Strings(want)
		var got []string
		db.MustTable("t").Scan(func(row sqltypes.Row) bool {
			got = append(got, row.String())
			return true
		})
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			return fmt.Errorf("difftest: round %d: state mismatch:\ngot:  %s\nwant: %s",
				round, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
	return nil
}
