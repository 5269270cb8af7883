package gdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/obs"
)

// The operation journal is the AOF half of durability: every mutating
// command (GRAPH.RESTORE, GRAPH.DELETE, mutating Cypher) is appended
// as one length-prefixed, checksummed record and fsynced before the
// mutation is acknowledged. Startup recovery replays the journal that
// pairs with the loaded snapshot, truncating a torn tail (a record cut
// short or failing its CRC) instead of failing:
//
//	record:  uint32 payloadLen | uint32 CRC32(payload) | payload
//	payload: opcode byte | uint32 nameLen | name | uint32 argLen | arg
//
// Opcodes: 'Q' mutating Cypher (arg = statement), 'R' GRAPH.RESTORE
// (arg = dump), 'D' GRAPH.DELETE (arg empty). Integers are big-endian.

const (
	opCypher  = 'Q'
	opRestore = 'R'
	opDelete  = 'D'

	// maxJournalRecord bounds one record payload (256 MiB): larger
	// length prefixes, and those past the end of the file, are treated
	// as corruption, not allocations.
	maxJournalRecord = 256 << 20
)

// Failpoints in the journal write path.
const (
	FPJournalAppend = "gdb.journal.append"
	FPJournalSync   = "gdb.journal.sync"
	FPJournalRotate = "gdb.journal.rotate"
)

var _ = fault.Declare(FPJournalAppend, FPJournalSync, FPJournalRotate)

// journalOp is one decoded journal record.
type journalOp struct {
	op   byte
	name string
	arg  string
}

// encode renders the record, checksummed and length-prefixed.
func (o journalOp) encode() []byte {
	payload := make([]byte, 0, 9+len(o.name)+len(o.arg))
	payload = append(payload, o.op)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(o.name)))
	payload = append(payload, o.name...)
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(o.arg)))
	payload = append(payload, o.arg...)

	rec := make([]byte, 0, 8+len(payload))
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// decodeJournalOp parses one CRC-validated payload.
func decodeJournalOp(payload []byte) (journalOp, error) {
	if len(payload) < 9 {
		return journalOp{}, fmt.Errorf("gdb: journal payload too short (%d bytes)", len(payload))
	}
	op := payload[0]
	rest := payload[1:]
	nameLen := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(nameLen) > uint64(len(rest)) {
		return journalOp{}, fmt.Errorf("gdb: journal name length %d exceeds payload", nameLen)
	}
	name := string(rest[:nameLen])
	rest = rest[nameLen:]
	if len(rest) < 4 {
		return journalOp{}, fmt.Errorf("gdb: journal payload truncated before arg length")
	}
	argLen := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(argLen) != uint64(len(rest)) {
		return journalOp{}, fmt.Errorf("gdb: journal arg length %d does not match payload", argLen)
	}
	switch op {
	case opCypher, opRestore, opDelete:
	default:
		return journalOp{}, fmt.Errorf("gdb: unknown journal opcode %q", op)
	}
	return journalOp{op: op, name: name, arg: string(rest)}, nil
}

// appendJournal writes one record to the open journal file and fsyncs
// it, returning the record's framed length so the caller can advance
// its journal offset. The caller holds the durability journal lock.
func appendJournal(f *os.File, o journalOp) (int64, error) {
	if err := fault.Inject(FPJournalAppend); err != nil {
		return 0, fmt.Errorf("gdb: journal append: %w", err)
	}
	rec := o.encode()
	if _, err := fault.Writer(FPJournalAppend, f).Write(rec); err != nil {
		return 0, fmt.Errorf("gdb: journal append: %w", err)
	}
	if err := fault.Inject(FPJournalSync); err != nil {
		return 0, fmt.Errorf("gdb: journal sync: %w", err)
	}
	syncStart := time.Now()
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("gdb: journal sync: %w", err)
	}
	obs.DurFsyncLatencyUS.Observe(time.Since(syncStart).Microseconds())
	obs.DurJournalAppends.Inc()
	obs.DurJournalBytes.Add(int64(len(rec)))
	return int64(len(rec)), nil
}

// readJournal scans the journal at path, returning every intact record
// in order and the byte offset where the intact prefix ends. A missing
// file is an empty journal. Damage — a short header, a payload cut off
// by EOF, a CRC mismatch, an undecodable payload — ends the scan at
// the last good offset; torn reports whether such a tail was found.
// The caller truncates the file there so the next append starts on a
// record boundary.
func readJournal(path string) (ops []journalOp, good int64, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	//lint:ignore errdrop read-only file; close failures cannot lose data
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, false, err
	}

	var off int64
	header := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			// Clean EOF on a record boundary: the whole journal is
			// intact. Anything else is a torn tail.
			return ops, off, err != io.EOF, nil
		}
		payloadLen := binary.BigEndian.Uint32(header)
		crc := binary.BigEndian.Uint32(header[4:])
		if payloadLen > maxJournalRecord || int64(payloadLen) > st.Size()-off-8 {
			return ops, off, true, nil
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(f, payload); err != nil {
			return ops, off, true, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return ops, off, true, nil
		}
		op, err := decodeJournalOp(payload)
		if err != nil {
			return ops, off, true, nil
		}
		ops = append(ops, op)
		off += 8 + int64(payloadLen)
	}
}
