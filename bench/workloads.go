package main

import "tintin/internal/tpch"

// workload fixes one set of inputs. Names and sizes are frozen: they are
// what BENCHMARK.json and every recorded result refer to.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why        string
	Orders     int      // orders in the starting database
	Assertions []string // CREATE ASSERTION statements installed at set-up
	Workers    int      // core.Options.Workers
	WAL        bool     // durable: WALDir set, Fsync=SyncAlways, default CheckpointEvery
	SQL        bool     // updates arrive as SQL text through the parser and the engine's DML path
	Rows       int      // event rows per update
	// Txns is the timed pass's transaction count when no -seconds budget
	// is given; the traced pass runs a quarter of it.
	Txns int
}

// The two aggregate assertions of experiment E5 (internal/harness keeps
// its copy private).
var aggregateAssertions = []string{
	`CREATE ASSERTION atMostTwentyLineItems CHECK(
  NOT EXISTS (
    SELECT * FROM orders AS o
    WHERE (SELECT COUNT(*) FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey) > 20))`,
	`CREATE ASSERTION totalQuantityCap CHECK(
  NOT EXISTS (
    SELECT * FROM orders AS o
    WHERE (SELECT SUM(l.l_quantity) FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey) > 100000))`,
}

func nineAssertions() []string {
	return append(tpch.ComplexityAssertions(), aggregateAssertions...)
}

func allWorkloads() []*workload {
	one := []string{tpch.AssertionAtLeastOneLineItem}
	return []*workload{
		{
			Name: "bulk_mem", Orders: 100000, Assertions: one, Workers: 1, Rows: 350, Txns: 10000,
			Why: "350-row balanced updates, 1 assertion, in memory: storage (stage, apply) is 70% of the transaction, so write-path changes show here",
		},
		{
			Name: "check_serial", Orders: 100000, Assertions: nineAssertions(), Workers: 1, Rows: 1000, Txns: 1000,
			Why: "1000-row updates against 9 assertions, Workers=1: the serial check loop is most of the transaction, so engine changes show here",
		},
		{
			Name: "check_pool2", Orders: 100000, Assertions: nineAssertions(), Workers: 2, Rows: 1000, Txns: 1000,
			Why: "the same batches as check_serial with Workers=2: the check runs through sched.Pool, plan clones and Freeze/Thaw",
		},
		{
			Name: "small_wal", Orders: 20000, Assertions: tpch.ComplexityAssertions(), Workers: 1, WAL: true, Rows: 50, Txns: 20000,
			Why: "50-row updates with the WAL on, fsync always, checkpoint every 256 commits: fsync, per-commit fixed costs and checkpoints dominate, rows do not",
		},
		{
			Name: "sql_ingest", Orders: 20000, Assertions: one, Workers: 1, SQL: true, Rows: 1000, Txns: 1200,
			Why: "1000-row updates as SQL text (multi-row INSERTs, two range DELETEs, CALL safeCommit): the parser and the engine's DML path do the work",
		},
	}
}
