// Package coretest provides shared test fixtures for the packages that
// exercise the tool end to end (core's parallel-parity tests and sched's
// concurrent-safeCommit tests), so the banking schema and its assertions
// exist in exactly one place.
package coretest

import (
	"testing"

	"tintin/internal/core"
	"tintin/internal/storage"
)

// BankAssertions is the banking example's assertion set: one single-table
// check, one NOT IN membership check, and one two-denial EXISTS check —
// overlapping and disjoint event footprints for the scheduler to fan out.
var BankAssertions = []string{
	`CREATE ASSERTION positiveAmount CHECK (
		NOT EXISTS (SELECT * FROM transfer AS t WHERE t.t_amount <= 0))`,
	`CREATE ASSERTION accountHasCustomer CHECK (
		NOT EXISTS (
			SELECT * FROM account AS a
			WHERE a.a_customer NOT IN (SELECT c.c_id FROM customer AS c)))`,
	`CREATE ASSERTION transferEndpointsOpen CHECK (
		NOT EXISTS (
			SELECT * FROM transfer AS t
			WHERE NOT EXISTS (
					SELECT * FROM account AS a
					WHERE a.a_id = t.t_from AND a.a_closed = FALSE)
			   OR NOT EXISTS (
					SELECT * FROM account AS b
					WHERE b.a_id = t.t_to AND b.a_closed = FALSE)))`,
}

// NewBankTool builds the banking schema with seed data (customers 1-2,
// accounts 100/200 open and 300 closed, one transfer), installs the tool
// with the given commit-check worker count, and compiles BankAssertions.
func NewBankTool(t testing.TB, workers int) *core.Tool {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Workers = workers
	return NewBankToolOpts(t, opts)
}

// NewBankToolOpts is NewBankTool with full control over the tool options
// (worker count, fail-fast, ablation toggles).
func NewBankToolOpts(t testing.TB, opts core.Options) *core.Tool {
	t.Helper()
	db := storage.NewDB("bank")
	tool := core.New(db, opts)
	if _, err := tool.Engine().ExecSQL(`
		CREATE TABLE customer (c_id INTEGER PRIMARY KEY, c_name VARCHAR NOT NULL);
		CREATE TABLE account (
			a_id INTEGER PRIMARY KEY,
			a_customer INTEGER NOT NULL,
			a_closed BOOLEAN NOT NULL,
			FOREIGN KEY (a_customer) REFERENCES customer (c_id)
		);
		CREATE TABLE transfer (
			t_id INTEGER PRIMARY KEY,
			t_from INTEGER NOT NULL,
			t_to INTEGER NOT NULL,
			t_amount REAL NOT NULL
		);
		INSERT INTO customer VALUES (1, 'Ada'), (2, 'Grace');
		INSERT INTO account VALUES (100, 1, FALSE), (200, 2, FALSE), (300, 2, TRUE);
		INSERT INTO transfer VALUES (1000, 100, 200, 25.0);
	`); err != nil {
		t.Fatal(err)
	}
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range BankAssertions {
		if _, err := tool.AddAssertion(sql); err != nil {
			t.Fatal(err)
		}
	}
	return tool
}
