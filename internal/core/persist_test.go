package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tintin/internal/sqltypes"
)

func TestToolSaveAndLoad(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	if _, err := tool.AddAssertion(assertPositiveQty); err != nil {
		t.Fatal(err)
	}
	// Leave a pending (violating) event in the snapshot.
	mustExec(t, eng, `INSERT INTO orders VALUES (7, 1.0)`)

	var buf bytes.Buffer
	if err := tool.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadTool(&buf, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Assertions()) != 2 {
		t.Fatalf("assertions = %d, want 2", len(restored.Assertions()))
	}
	// The pending event survived and still violates atLeastOneLineItem.
	res, err := restored.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || len(res.Violations) == 0 {
		t.Fatalf("restored tool missed the pending violation: %+v", res)
	}
	// The restored tool keeps working for new transactions.
	mustExec(t, restored.Engine(), `INSERT INTO orders VALUES (7, 1.0)`)
	mustExec(t, restored.Engine(), `INSERT INTO lineitem VALUES (7, 1, 2)`)
	res, err = restored.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("clean transaction rejected after restore: %+v", res.Violations)
	}
}

// TestUserViewsSurviveReload: a view made with CREATE VIEW belongs to the
// database, not to an assertion, so reloading the tool must restore it
// beside the regenerated assertion views. Both ways a tool is reloaded are
// covered: Save/LoadTool, and a checkpoint followed by OpenDurable.
func TestUserViewsSurviveReload(t *testing.T) {
	const userView = `CREATE VIEW bigorders AS SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice > 15.0`
	wantViews := []string{"atleastonelineitem1", "atleastonelineitem2", "bigorders"}
	check := func(t *testing.T, tool *Tool) {
		t.Helper()
		if got := tool.DB().ViewNames(); strings.Join(got, " ") != strings.Join(wantViews, " ") {
			t.Fatalf("views after reload = %v, want %v", got, wantViews)
		}
		res, err := tool.Engine().QuerySQL(`SELECT * FROM bigorders AS b`)
		if err != nil {
			t.Fatalf("querying the user view after reload: %v", err)
		}
		if len(res.Rows) != 1 || !sqltypes.Identical(res.Rows[0][0], sqltypes.NewInt(2)) {
			t.Fatalf("bigorders = %v, want [(2)]", res.Rows)
		}
	}

	t.Run("save-load", func(t *testing.T) {
		tool, eng := newTool(t, DefaultOptions())
		mustExec(t, eng, userView)
		var buf bytes.Buffer
		if err := tool.Save(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := LoadTool(&buf, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		check(t, restored)
	})

	t.Run("checkpoint-opendurable", func(t *testing.T) {
		opts := DefaultOptions()
		opts.WALDir = t.TempDir()
		tool, err := OpenDurable(opts, buildFreshTool(t, opts))
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, tool.Engine(), userView)
		if err := tool.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// No Close: recovery starts from the checkpoint above.
		recovered, err := OpenDurable(opts, func() (*Tool, error) {
			return nil, errors.New("init called despite existing durable state")
		})
		if err != nil {
			t.Fatal(err)
		}
		defer recovered.Close()
		check(t, recovered)
	})
}
