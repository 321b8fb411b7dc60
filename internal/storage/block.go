package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot block framing: every persisted payload (the database snapshot,
// the tool's assertion list) is wrapped as
//
//	magic(4) | version(1) | payloadLen(8, LE) | payload | crc32c(4, LE)
//
// with the CRC taken over version+length+payload. The length lives in the
// header, so multiple blocks compose in one stream (Tool.Save appends an
// assertion block after the database block), and a truncated or bit-flipped
// file fails with a clear sentinel instead of a payload decode error.
//
// The version names the payload format, one number for every magic. Version
// 3 is the sqltypes value codec with each base table's pending events stored
// after its rows (see Save and Tool.Save). Version 2 stored event tables as
// tables of their own, and version 1 was gob; both are recognised only to say
// that they are no longer read.

const snapshotVersion = 3

// retiredVersions names each earlier block format.
var retiredVersions = [snapshotVersion]string{1: "gob-era", 2: "version-2"}

// Block magics. Four bytes, human-greppable.
const (
	MagicDB         = "TSNP" // storage.Save database snapshot
	MagicAssertions = "TAST" // core.Tool.Save assertion list
)

var blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt reports a snapshot whose bytes are present but wrong:
// bad magic, unsupported version, or a checksum mismatch.
var ErrSnapshotCorrupt = errors.New("tintin: snapshot corrupt")

// ErrSnapshotTruncated reports a snapshot that ends before its framing
// says it should.
var ErrSnapshotTruncated = errors.New("tintin: snapshot truncated")

// WriteBlock frames payload under magic and writes it to w.
func WriteBlock(w io.Writer, magic string, payload []byte) error {
	if len(magic) != 4 {
		return fmt.Errorf("storage: block magic %q must be 4 bytes", magic)
	}
	var hdr [13]byte
	copy(hdr[:4], magic)
	hdr[4] = snapshotVersion
	binary.LittleEndian.PutUint64(hdr[5:13], uint64(len(payload)))
	crc := crc32.New(blockCRCTable)
	crc.Write(hdr[4:13])
	crc.Write(payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(tail[:])
	return err
}

// ReadBlock reads one framed block from r and verifies magic, version and
// checksum. The payload is read progressively (bounded by what r actually
// yields), so a corrupted length field cannot force a giant allocation.
func ReadBlock(r io.Reader, magic string) ([]byte, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: missing %s block header", ErrSnapshotTruncated, magic)
		}
		return nil, err
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: want %s block, found %q", ErrSnapshotCorrupt, magic, hdr[:4])
	}
	switch v := hdr[4]; {
	case v == snapshotVersion:
	case v > 0 && v < snapshotVersion:
		return nil, fmt.Errorf("%w: %s block is version %d; %s snapshots are no longer read (this build reads version %d)",
			ErrSnapshotCorrupt, magic, v, retiredVersions[v], snapshotVersion)
	default:
		return nil, fmt.Errorf("%w: unsupported %s block version %d", ErrSnapshotCorrupt, magic, v)
	}
	plen := binary.LittleEndian.Uint64(hdr[5:13])
	var payload bytes.Buffer
	if n, err := io.CopyN(&payload, r, int64(plen)); err != nil || uint64(n) != plen {
		return nil, fmt.Errorf("%w: %s block ends %d bytes short", ErrSnapshotTruncated, magic, plen-uint64(n))
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: %s block missing checksum", ErrSnapshotTruncated, magic)
	}
	crc := crc32.New(blockCRCTable)
	crc.Write(hdr[4:13])
	crc.Write(payload.Bytes())
	if binary.LittleEndian.Uint32(tail[:]) != crc.Sum32() {
		return nil, fmt.Errorf("%w: %s block checksum mismatch", ErrSnapshotCorrupt, magic)
	}
	return payload.Bytes(), nil
}
