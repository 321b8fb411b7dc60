package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// allocCounter reads the process's cumulative heap-object count from
// runtime/metrics: no stop-the-world, no allocation, so it can bracket the
// same calls the transaction clock does. The runtime folds a size class's
// count in when its span is swapped out, so one transaction's delta is
// off by part of a span; sums over a pass are what the metrics use.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.s[0].Name = "/gc/heap/allocs:objects"
	return c
}

func (c *allocCounter) read() uint64 {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64()
}

// span is one call into a layer, recorded by the benchmark around the call.
// Probe marks work safeCommit would not have done: a transaction span whose
// transaction also ran validate and encode on an in-memory workload, those
// two spans, and the truncate of empty tables timed after each transaction.
type span struct {
	Txn    int    `json:"txn"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the transaction span itself
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Probe  bool   `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced pass's spans in memory until the pass ends.
type recorder struct {
	epoch  time.Time
	allocs *allocCounter
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), allocs: newAllocCounter(), spans: make([]span, 0, 1<<14)}
}

// open starts a span and returns its index; close ends it.
func (r *recorder) open(txn, parent int, name string, probe bool) int {
	r.spans = append(r.spans, span{Txn: txn, ID: len(r.spans) + 1, Parent: parent, Name: name, Probe: probe,
		Allocs: r.allocs.read(), Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) close(i int) span {
	s := &r.spans[i]
	s.End = int64(time.Since(r.epoch))
	s.Allocs = r.allocs.read() - s.Allocs
	return *s
}

// do records fn as a child span of the span at index parent.
func (r *recorder) do(parent int, name string, probe bool, fn func() error) (span, error) {
	i := r.open(r.spans[parent].Txn, r.spans[parent].ID, name, probe)
	err := fn()
	return r.close(i), err
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
