// Package wal implements the durability subsystem: a write-ahead log of
// applied event batches plus snapshot checkpoints, so a TINTIN instance
// survives process death. The paper's design funnels every update through
// the event tables before ApplyEvents, which makes the applied batch the
// natural redo-log unit: one length-prefixed, CRC-checksummed,
// sequence-numbered record per committed batch, appended (and fsynced,
// per policy) before the in-memory apply. Recovery loads the latest valid
// snapshot and replays the log tail; a torn final record — the signature
// of a crash mid-append — is truncated away, while corruption anywhere
// else in the log is a hard error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"time"

	"tintin/internal/obs"
)

// SyncPolicy controls when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record acknowledged to the
	// committer is on disk. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs an append only when SyncInterval has elapsed
	// since the last fsync, bounding the window of acknowledged-but-lost
	// batches to that interval.
	SyncInterval
	// SyncOff never fsyncs on append (the OS flushes at its leisure);
	// only checkpoints and Close force data down.
	SyncOff
)

// ParseSyncPolicy parses the CLI spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off", "never", "none":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Metrics holds the direct metric pointers the log publishes into. All
// fields may be nil (obs primitives are nil-receiver-safe), so an
// unmetered log costs one predictable branch per site.
type Metrics struct {
	Appends     *obs.Counter
	AppendBytes *obs.Counter
	Fsyncs      *obs.Counter
	FsyncNS     *obs.Histogram
	Checkpoints *obs.Counter
	Replayed    *obs.Counter
	// TornTruncations counts torn log tails dropped at open — the
	// signature of a crash mid-append, surfaced so operators can tell a
	// clean restart from one that discarded an unacknowledged batch.
	TornTruncations *obs.Counter
}

// Options configures a Store / Log.
type Options struct {
	Sync SyncPolicy
	// SyncInterval is the fsync period under SyncInterval (default 100ms).
	SyncInterval time.Duration
	Metrics      Metrics
	// Logger receives recovery and checkpoint lifecycle events (torn-tail
	// truncations, checkpoints written). Never called on the append path —
	// the obsdirect analyzer holds logging off commit-reachable code.
	Logger *obs.Logger
	// Injector, when set, simulates crashes and write errors at named
	// points (tests only).
	Injector *Injector
}

const (
	logMagic  = "TWAL"
	snapMagic = "TWSP"
	version   = 1

	// Log header: magic(4) ver(1) startSeq(8) crc(4).
	logHeaderSize = 17
	// Record header: payloadLen(4) crc(4) seq(8) type(1); crc covers
	// seq+type+payload.
	recHeaderSize      = 17
	recTypeEvents      = 1
	defaultFsyncPeriod = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports unrecoverable log damage: a bad header, a checksum
// mismatch before the final record, or a sequence-number gap. Torn final
// records are NOT this error — they are silently truncated.
var ErrCorrupt = errors.New("wal: log corrupt")

// Record is one replayable log entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Log is an append-only record log backed by one file.
type Log struct {
	f        file
	path     string
	nextSeq  uint64
	size     int64 // bytes acknowledged into the file (header + records)
	o        Options
	lastSync time.Time
	buf      []byte
	// tail holds the valid records found at open, until TakeTail.
	tail []Record
}

// openLog opens (creating if absent) the log at path. A fresh or torn-empty
// log is initialized with startSeq; an existing valid log keeps its own.
// The valid records found are held for TakeTail.
func openLog(path string, startSeq uint64, o Options) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	l := &Log{path: path, o: o}

	fresh := false
	switch {
	case len(data) == 0:
		fresh = true
	case len(data) < logHeaderSize:
		// Torn header (crash while initializing the log): treat as fresh.
		fresh = true
		o.Metrics.TornTruncations.Inc()
		o.Logger.Warn("wal: dropping torn log header", "path", path, "bytes", len(data))
	default:
		if string(data[:4]) != logMagic || data[4] != version {
			return nil, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
		}
		want := binary.LittleEndian.Uint32(data[13:17])
		if crc32.Checksum(data[:13], castagnoli) != want {
			return nil, fmt.Errorf("%w: header checksum mismatch in %s", ErrCorrupt, path)
		}
		l.nextSeq = binary.LittleEndian.Uint64(data[5:13])
	}

	truncateTo := int64(logHeaderSize)
	if fresh {
		l.nextSeq = startSeq
		truncateTo = 0
	} else {
		var err error
		truncateTo, err = l.scan(data)
		if err != nil {
			return nil, err
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if o.Injector != nil {
		l.f = newFaultFile(f, o.Injector)
	} else {
		l.f = (*osFile)(f)
	}
	if fresh {
		if err := l.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		if truncateTo < int64(len(data)) {
			// Drop the torn tail so appends extend a clean prefix.
			o.Metrics.TornTruncations.Inc()
			o.Logger.Warn("wal: truncating torn tail", "path", path,
				"dropped_bytes", int64(len(data))-truncateTo, "valid_records", len(l.tail))
			if err := l.f.Truncate(truncateTo); err != nil {
				f.Close()
				return nil, err
			}
			if err := l.f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
		if _, err := l.f.Seek(truncateTo, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		l.size = truncateTo
	}
	l.lastSync = time.Now()
	return l, nil
}

// scan validates the record stream in data and returns the byte offset of
// the end of the last valid record. The torn-tail rule: an incomplete
// record at EOF, or a complete record whose checksum fails exactly at EOF,
// is a torn write — drop it. A checksum failure with more bytes after the
// record is mid-log corruption — hard error.
func (l *Log) scan(data []byte) (int64, error) {
	off := logHeaderSize
	for off < len(data) {
		if len(data)-off < recHeaderSize {
			break // torn: partial record header at EOF
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		end := off + recHeaderSize + plen
		if plen < 0 || end > len(data) || end < off {
			break // torn: record body extends past EOF
		}
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if crc32.Checksum(data[off+8:end], castagnoli) != want {
			if end == len(data) {
				break // torn: the final record's bytes were only partially persisted
			}
			return 0, fmt.Errorf("%w: record checksum mismatch at offset %d in %s", ErrCorrupt, off, l.path)
		}
		seq := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if seq != l.nextSeq {
			return 0, fmt.Errorf("%w: sequence gap at offset %d in %s: got %d, want %d", ErrCorrupt, off, l.path, seq, l.nextSeq)
		}
		if typ := data[off+16]; typ != recTypeEvents {
			return 0, fmt.Errorf("%w: unknown record type %d at offset %d in %s", ErrCorrupt, typ, off, l.path)
		}
		payload := make([]byte, plen)
		copy(payload, data[off+recHeaderSize:end])
		l.tail = append(l.tail, Record{Seq: seq, Payload: payload})
		l.nextSeq++
		off = end
	}
	return int64(off), nil
}

// TakeTail returns the valid records found at open and releases them.
func (l *Log) TakeTail() []Record {
	t := l.tail
	l.tail = nil
	return t
}

func (l *Log) writeHeader() error {
	var h [logHeaderSize]byte
	copy(h[:4], logMagic)
	h[4] = version
	binary.LittleEndian.PutUint64(h[5:13], l.nextSeq)
	binary.LittleEndian.PutUint32(h[13:17], crc32.Checksum(h[:13], castagnoli))
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := l.f.Write(h[:]); err != nil {
		return err
	}
	if err := l.syncFile(); err != nil {
		return err
	}
	l.size = logHeaderSize
	return nil
}

// Append encodes payload as the next record and applies the fsync policy.
// On any error the log file is rewound to its pre-append size, so a failed
// append never leaves bytes a later append would build on.
func (l *Log) Append(payload []byte) (uint64, error) {
	inj := l.o.Injector
	if err := inj.enter(PointPreAppend); err != nil {
		return 0, err
	}
	need := recHeaderSize + len(payload)
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	rec := l.buf[:need]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[8:16], l.nextSeq)
	rec[16] = recTypeEvents
	copy(rec[recHeaderSize:], payload)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], castagnoli))

	rewind := func(err error) (uint64, error) {
		if terr := l.f.Truncate(l.size); terr == nil {
			l.f.Seek(l.size, io.SeekStart)
		}
		return 0, err
	}
	if _, err := l.f.Write(rec); err != nil {
		return rewind(err)
	}
	// The record is in the OS (or the fault buffer) but not yet durable.
	if err := inj.enter(PointMidAppend); err != nil {
		return rewind(err)
	}
	if err := inj.enter(PointPostAppendPreFsync); err != nil {
		return rewind(err)
	}
	if err := l.maybeSync(); err != nil {
		return rewind(err)
	}
	l.size += int64(need)
	seq := l.nextSeq
	l.nextSeq++
	m := l.o.Metrics
	m.Appends.Inc()
	m.AppendBytes.Add(int64(need))
	return seq, nil
}

func (l *Log) maybeSync() error {
	switch l.o.Sync {
	case SyncAlways:
		return l.syncFile()
	case SyncInterval:
		period := l.o.SyncInterval
		if period <= 0 {
			period = defaultFsyncPeriod
		}
		if time.Since(l.lastSync) >= period {
			return l.syncFile()
		}
		return nil
	}
	return nil
}

func (l *Log) syncFile() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.lastSync = time.Now()
	m := l.o.Metrics
	m.Fsyncs.Inc()
	m.FsyncNS.ObserveDuration(time.Since(start))
	return nil
}

// Sync forces buffered appends to disk regardless of policy.
func (l *Log) Sync() error { return l.syncFile() }

// Reset truncates the log and starts a new record stream at startSeq —
// the post-checkpoint compaction step.
func (l *Log) Reset(startSeq uint64) error {
	l.nextSeq = startSeq
	return l.writeHeader()
}

// NextSeq returns the sequence number the next append will receive.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// Close syncs and closes the file.
func (l *Log) Close() error {
	serr := l.f.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
