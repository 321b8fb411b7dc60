// Fault injection: an injectable file shim with named crash points and
// partial-write / transient-error modes. The kill-and-recover tests arm an
// Injector at each point, drive a commit into the simulated crash, then
// re-open the directory and assert the recovered state is exactly the
// pre-commit or post-commit state — never a half-applied batch.
package wal

import (
	"errors"
	"io"
	"os"
	"sync"
)

// CrashPoint names a place in the append/checkpoint path where an
// Injector can simulate a crash (or a transient error).
type CrashPoint int

const (
	// PointNone disables injection.
	PointNone CrashPoint = iota
	// PointPreAppend fires before any record byte is written.
	PointPreAppend
	// PointMidAppend fires after the record reached the (unsynced) file:
	// with a partial Persist budget this is the torn-write case.
	PointMidAppend
	// PointPostAppendPreFsync fires after the full record is written but
	// before the policy fsync.
	PointPostAppendPreFsync
	// PointPostFsyncPreApply fires after the append (and its fsync)
	// succeeded but before ApplyEvents runs — the record is durable, the
	// in-memory state is not.
	PointPostFsyncPreApply
	// PointMidCheckpoint fires after the snapshot file is atomically
	// renamed into place but before the log is reset.
	PointMidCheckpoint
)

func (p CrashPoint) String() string {
	switch p {
	case PointNone:
		return "none"
	case PointPreAppend:
		return "pre-append"
	case PointMidAppend:
		return "mid-append"
	case PointPostAppendPreFsync:
		return "post-append-pre-fsync"
	case PointPostFsyncPreApply:
		return "post-fsync-pre-apply"
	case PointMidCheckpoint:
		return "mid-checkpoint"
	}
	return "unknown"
}

// PersistAll / PersistNone are the Persist extremes: everything unsynced
// reaches disk at the crash, or nothing does.
const (
	PersistAll  = -1
	PersistNone = 0
)

// ErrCrash is returned by every operation once the injected crash fired:
// the process is "dead" and the store unusable until re-opened.
var ErrCrash = errors.New("wal: injected crash")

// ErrInjected is the transient-error mode's failure: returned once at the
// armed point, after which the store keeps working.
var ErrInjected = errors.New("wal: injected write error")

// Injector simulates a crash (or one transient error) at a named point.
// It starts disarmed so recovery of a previous crash can run through the
// same store without re-triggering; call Arm when the window opens.
//
// At the crash, Persist bytes of not-yet-fsynced data reach the backing
// file (PersistNone = the page cache was lost whole, PersistAll = the OS
// happened to flush everything, n > 0 = a torn prefix), which is exactly
// the set of outcomes a real power cut allows between two fsyncs.
type Injector struct {
	Point CrashPoint
	// Persist is the unsynced-byte budget applied at the crash.
	Persist int
	// Transient makes the injection a one-shot error instead of a crash.
	Transient bool

	mu      sync.Mutex
	armed   bool
	crashed bool
	fired   bool
	ff      *faultFile
}

// Arm opens the injection window.
func (in *Injector) Arm() {
	in.mu.Lock()
	in.armed = true
	in.mu.Unlock()
}

// Crashed reports whether the simulated crash has fired.
func (in *Injector) Crashed() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// enter is called by the log/store at each named point; nil-safe.
func (in *Injector) enter(p CrashPoint) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return ErrCrash
	}
	if !in.armed || in.fired || p != in.Point {
		return nil
	}
	in.fired = true
	if in.Transient {
		return ErrInjected
	}
	in.crashed = true
	if in.ff != nil {
		in.ff.crash(in.Persist)
	}
	return ErrCrash
}

func (in *Injector) dead() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return ErrCrash
	}
	return nil
}

// file is the log's backing-store contract; *osFile satisfies it directly,
// faultFile interposes the unsynced-write buffer.
type file interface {
	io.Writer
	io.Closer
	io.Seeker
	Sync() error
	Truncate(size int64) error
}

// osFile is the production passthrough.
type osFile os.File

func (f *osFile) Write(p []byte) (int, error)               { return (*os.File)(f).Write(p) }
func (f *osFile) Close() error                              { return (*os.File)(f).Close() }
func (f *osFile) Seek(off int64, whence int) (int64, error) { return (*os.File)(f).Seek(off, whence) }
func (f *osFile) Sync() error                               { return (*os.File)(f).Sync() }
func (f *osFile) Truncate(size int64) error                 { return (*os.File)(f).Truncate(size) }

// faultFile models the page cache honestly: writes accumulate in pending
// and reach the real file only on Sync. A simulated crash flushes the
// injector's Persist budget of pending bytes and marks the file dead, so
// what the next open reads is precisely what "survived".
type faultFile struct {
	real    *os.File
	inj     *Injector
	mu      sync.Mutex
	flushed int64 // real-file size (bytes durably-ordered, pre-fsync semantics aside)
	pending []byte
}

func newFaultFile(f *os.File, inj *Injector) *faultFile {
	ff := &faultFile{real: f, inj: inj}
	if end, err := f.Seek(0, io.SeekEnd); err == nil {
		ff.flushed = end
	}
	inj.mu.Lock()
	inj.ff = ff
	inj.mu.Unlock()
	return ff
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err := ff.inj.dead(); err != nil {
		return 0, err
	}
	ff.mu.Lock()
	ff.pending = append(ff.pending, p...)
	ff.mu.Unlock()
	return len(p), nil
}

func (ff *faultFile) Sync() error {
	if err := ff.inj.dead(); err != nil {
		return err
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.flushLocked(len(ff.pending))
}

func (ff *faultFile) flushLocked(n int) error {
	if n > len(ff.pending) {
		n = len(ff.pending)
	}
	if n > 0 {
		if _, err := ff.real.WriteAt(ff.pending[:n], ff.flushed); err != nil {
			return err
		}
		ff.flushed += int64(n)
		ff.pending = ff.pending[n:]
	}
	return ff.real.Sync()
}

// crash flushes persist bytes of unsynced data (PersistAll = everything)
// to the real file; called with the injector's lock held.
func (ff *faultFile) crash(persist int) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if persist == PersistAll {
		persist = len(ff.pending)
	}
	ff.flushLocked(persist)
	ff.pending = nil
}

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.inj.dead(); err != nil {
		return err
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if size >= ff.flushed {
		keep := size - ff.flushed
		if keep > int64(len(ff.pending)) {
			keep = int64(len(ff.pending))
		}
		ff.pending = ff.pending[:keep]
		return nil
	}
	ff.pending = nil
	if err := ff.real.Truncate(size); err != nil {
		return err
	}
	ff.flushed = size
	return nil
}

func (ff *faultFile) Seek(off int64, whence int) (int64, error) {
	if err := ff.inj.dead(); err != nil {
		return 0, err
	}
	// Appends are positional via flushed+pending; only header rewrites
	// seek, and they follow a Truncate(0) that reset both.
	return off, nil
}

func (ff *faultFile) Close() error {
	return ff.real.Close()
}
