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

// appendJournal writes one framed record to the open journal file and
// fsyncs it, behind the failpoints fpAppend and fpSync: a leader's
// gdb.journal.append/.sync, a follower's repl.apply.append/.sync. Its
// one caller, appendAndApply, holds the journal lock.
func appendJournal(f *os.File, rec []byte, fpAppend, fpSync string) error {
	if err := fault.Inject(fpAppend); err != nil {
		return fmt.Errorf("gdb: journal append: %w", err)
	}
	if _, err := fault.Writer(fpAppend, f).Write(rec); err != nil {
		return fmt.Errorf("gdb: journal append: %w", err)
	}
	if err := fault.Inject(fpSync); err != nil {
		return fmt.Errorf("gdb: journal sync: %w", err)
	}
	syncStart := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("gdb: journal sync: %w", err)
	}
	obs.DurFsyncLatencyUS.Observe(time.Since(syncStart).Microseconds())
	obs.DurJournalAppends.Inc()
	obs.DurJournalBytes.Add(int64(len(rec)))
	return nil
}

// decodeFramedRecord is the one check of a record as it sits in the
// file: its length prefix matches the bytes, its CRC holds and its
// payload decodes. Recovery, the records a leader ships and a
// follower's ReplApply all pass through it, so all three stop at the
// same record.
func decodeFramedRecord(raw []byte) (journalOp, error) {
	if len(raw) < 8 {
		return journalOp{}, fmt.Errorf("gdb: framed record too short (%d bytes)", len(raw))
	}
	payloadLen := binary.BigEndian.Uint32(raw)
	if uint64(payloadLen) != uint64(len(raw)-8) {
		return journalOp{}, fmt.Errorf("gdb: framed record length %d does not match %d payload bytes", payloadLen, len(raw)-8)
	}
	if crc32.ChecksumIEEE(raw[8:]) != binary.BigEndian.Uint32(raw[4:]) {
		return journalOp{}, errors.New("gdb: framed record CRC mismatch")
	}
	return decodeJournalOp(raw[8:])
}

// scanJournal reads the journal at path from byte offset off and hands
// each intact record to each, raw and decoded, until each returns
// false. It is the one journal reader: recovery replays what it hands
// over and ScanRecords ships it to replicas. Damage — a short header, a
// length past maxJournalRecord or the end of the file, a payload cut
// off, a record decodeFramedRecord refuses — ends the scan, and torn
// reports it; a record still being appended reads as such a tail. end
// is the offset after the last record handed over.
func scanJournal(path string, off int64, each func(raw []byte, op journalOp) bool) (end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return off, false, err
	}
	//lint:ignore errdrop read-only file; close failures cannot lose data
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return off, false, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, false, err
	}
	header := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			// Clean EOF on a record boundary: the rest is intact.
			return off, err != io.EOF, nil
		}
		payloadLen := binary.BigEndian.Uint32(header)
		if payloadLen > maxJournalRecord || int64(payloadLen) > st.Size()-off-8 {
			return off, true, nil
		}
		raw := make([]byte, 8+payloadLen)
		copy(raw, header)
		if _, err := io.ReadFull(f, raw[8:]); err != nil {
			return off, true, nil
		}
		op, err := decodeFramedRecord(raw)
		if err != nil {
			return off, true, nil
		}
		off += int64(len(raw))
		if !each(raw, op) {
			return off, false, nil
		}
	}
}
