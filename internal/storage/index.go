package storage

import (
	"bytes"
	"hash/maphash"

	"tintin/internal/sqltypes"
)

// hashSeed seeds every index's key hash. Nothing a caller sees depends on it:
// a bucket's order is its insertion order, whatever the hash.
var hashSeed = maphash.MakeSeed()

// index is one hash index of a table: the primary key (where every bucket
// holds one slot), a secondary index, or the tuple-identity index. It is an
// open-addressing table with linear probing on a seeded 64-bit hash of the
// EncodeKey bytes of a row's projection onto cols. An entry holds that hash
// and the key's bucket: the slots of the rows holding the key, in insertion
// order, with swap-remove on deletion.
//
// No key is stored. A hash match is confirmed by encoding the bucket's first
// row again, after the probe key in the same scratch, and comparing bytes, so
// EncodeKey's injectivity is the only thing trusted. Deletion shifts the rest
// of the probe run back instead of leaving tombstones. An emptied bucket goes
// to a pool that grow sizes to hold every bucket the index has ever had, so a
// warm index allocates nothing on insert, delete, re-insert or clear.
type index struct {
	t       *Table
	cols    []int
	entries []entry // a power of two long; nil until the first key
	n       int     // occupied entries: the distinct keys
	pool    [][]int // emptied buckets, each of length 0
	// hashMask narrows every hash: all ones, except in tests that send every
	// key to a few hashes to force collisions.
	hashMask uint64
}

type entry struct {
	hash  uint64
	slots []int // nil: the entry is free
}

func newIndex(t *Table, cols []int) *index {
	return &index{t: t, cols: cols, hashMask: ^uint64(0)}
}

func (ix *index) hash(kb []byte) uint64 { return maphash.Bytes(hashSeed, kb) & ix.hashMask }

// appendKey appends r's key, its projection onto cols encoded by EncodeKey,
// to b. NULL encodes like any other value, so over every column it is the
// tuple-identity key (NULL matches NULL, agreeing with IdenticalRows).
func (ix *index) appendKey(b []byte, r sqltypes.Row) []byte {
	for _, c := range ix.cols {
		b = r[c].EncodeKey(b)
	}
	return b
}

// find returns the position of the entry whose key is (*buf)[:n] and whose
// hash is h, or else the free position that ends the key's probe run. Each
// hash match is verified by encoding the entry's first row into *buf after
// the key, which is why find takes the buffer itself: it grows once and then
// holds both keys. The index must have entries.
func (ix *index) find(buf *[]byte, n int, h uint64) (int, bool) {
	mask := uint64(len(ix.entries) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &ix.entries[i]
		if e.slots == nil {
			return int(i), false
		}
		if e.hash == h {
			b := ix.appendKey((*buf)[:n], ix.t.rows[e.slots[0]])
			*buf = b
			if bytes.Equal(b[:n], b[n:]) {
				return int(i), true
			}
		}
	}
}

// lookup returns the bucket for vals. nullSafe[i] says how a NULL in vals[i]
// compares: under a plain equality it equals nothing, so the bucket is nil;
// under a NULL-safe one (row identity, where NULL matches NULL) it is looked
// up like any other value, which works because EncodeKey encodes NULL and the
// index is maintained over every row. A nil mask means all plain. The probe
// key is encoded into *scratch, which is grown and written back so a caller
// reusing one scratch across probes never allocates. lookup is read-only:
// safe for concurrent use as long as each caller brings its own scratch and
// the table is not being mutated.
func (ix *index) lookup(scratch *[]byte, vals []sqltypes.Value, nullSafe []bool) []int {
	kb := (*scratch)[:0]
	for i, v := range vals {
		if v.IsNull() && (nullSafe == nil || !nullSafe[i]) {
			return nil
		}
		kb = v.EncodeKey(kb)
	}
	*scratch = kb
	if ix.n == 0 {
		return nil
	}
	if i, ok := ix.find(scratch, len(kb), ix.hash(kb)); ok {
		return ix.entries[i].slots
	}
	return nil
}

// locate encodes r's key into the table's write scratch and finds it as
// find does, also returning the key's hash. Write path: requires exclusive
// access to the table. The index must have entries.
func (ix *index) locate(r sqltypes.Row) (int, uint64, bool) {
	buf := &ix.t.writeScratch
	*buf = ix.appendKey((*buf)[:0], r)
	h := ix.hash(*buf)
	i, ok := ix.find(buf, len(*buf), h)
	return i, h, ok
}

// rowBucket returns the slots of the rows whose key equals r's, or nil.
// Write path, as locate.
func (ix *index) rowBucket(r sqltypes.Row) []int {
	if ix.n == 0 {
		return nil
	}
	if i, _, ok := ix.locate(r); ok {
		return ix.entries[i].slots
	}
	return nil
}

// add appends slot, which holds r, to the bucket of r's key.
func (ix *index) add(r sqltypes.Row, slot int) {
	if (ix.n+1)*4 > len(ix.entries)*3 {
		ix.grow()
	}
	i, h, ok := ix.locate(r)
	e := &ix.entries[i]
	if !ok {
		e.hash, e.slots = h, ix.newBucket()
		ix.n++
	}
	e.slots = append(e.slots, slot)
}

// remove takes slot, which holds r, out of the bucket of r's key: the last
// slot moves into its place. An emptied bucket goes back to the pool and its
// entry is freed.
func (ix *index) remove(r sqltypes.Row, slot int) {
	if ix.n == 0 {
		return
	}
	i, _, ok := ix.locate(r)
	if !ok {
		return
	}
	b := ix.entries[i].slots
	for j, s := range b {
		if s == slot {
			b[j] = b[len(b)-1]
			b = b[:len(b)-1]
			break
		}
	}
	if len(b) > 0 {
		ix.entries[i].slots = b
		return
	}
	ix.pool = append(ix.pool, b)
	ix.vacate(i)
}

// vacate frees the entry at i by backward shift: each later entry of the
// probe run whose home position does not lie between i and itself moves
// back into the hole, so every remaining key stays reachable from its home
// without tombstones.
func (ix *index) vacate(i int) {
	mask := len(ix.entries) - 1
	for j := (i + 1) & mask; ix.entries[j].slots != nil; j = (j + 1) & mask {
		home := int(ix.entries[j].hash & uint64(mask))
		if (j-home)&mask >= (j-i)&mask {
			ix.entries[i] = ix.entries[j]
			i = j
		}
	}
	ix.entries[i] = entry{}
	ix.n--
}

// newBucket returns an empty bucket, from the pool when it has one.
func (ix *index) newBucket() []int {
	if n := len(ix.pool); n > 0 {
		b := ix.pool[n-1]
		ix.pool = ix.pool[:n-1]
		return b
	}
	return make([]int, 0, 1)
}

// grow doubles the entries (to 8 at first) and rehashes them from their
// stored hashes. The pool's capacity becomes the entry count: a bucket is
// only made while the pool is empty, so the index never has more buckets
// than the most keys it held at once, which is fewer than its entries, and
// returning one to the pool never allocates.
func (ix *index) grow() {
	old := ix.entries
	ix.entries = make([]entry, max(8, 2*len(old)))
	mask := uint64(len(ix.entries) - 1)
	for _, e := range old {
		if e.slots == nil {
			continue
		}
		i := e.hash & mask
		for ix.entries[i].slots != nil {
			i = (i + 1) & mask
		}
		ix.entries[i] = e
	}
	ix.pool = append(make([][]int, 0, len(ix.entries)), ix.pool...)
}

// clear empties the index in place, keeping its entries and its buckets
// (pooled) for the next rows. An empty index returns at once.
func (ix *index) clear() {
	if ix.n == 0 {
		return
	}
	for i := range ix.entries {
		if b := ix.entries[i].slots; b != nil {
			ix.pool = append(ix.pool, b[:0])
			ix.entries[i] = entry{}
		}
	}
	ix.n = 0
}
