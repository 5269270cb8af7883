package gdb

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mscfpq/internal/fault"
	"mscfpq/internal/obs"
)

// Replication support (internal/repl builds on these primitives; see
// DESIGN.md §13). A follower's data directory is a byte-for-byte
// mirror of the leader's: the leader streams raw journal records and
// whole snapshot files, and the follower appends/installs them under
// the SAME sequence numbers. Because the on-disk layout is identical,
// follower crash recovery is ordinary Open — the recovered (seq,
// offset) pair is exactly the stream position to resume from, and the
// follower's state is a prefix of the leader's by construction.

// Failpoints in the replication apply/install paths, mirrored from the
// durability convention: the follower journal append is tearable (a
// crash mid-record must truncate cleanly on recovery), and the
// snapshot install is torn/failed at each syscall step.
const (
	FPReplApplyAppend   = "repl.apply.append"
	FPReplApplySync     = "repl.apply.sync"
	FPReplInstallWrite  = "repl.install.write"
	FPReplInstallSync   = "repl.install.sync"
	FPReplInstallRename = "repl.install.rename"
)

var _ = fault.Declare(FPReplApplyAppend, FPReplApplySync,
	FPReplInstallWrite, FPReplInstallSync, FPReplInstallRename)

// ReadOnlyError rejects a write on a replica. Its message starts with
// the READONLY code (Redis convention) so RESP clients can parse the
// leader address out of the error and re-route.
type ReadOnlyError struct{ Leader string }

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("READONLY replica of %s; write commands must go to the leader", e.Leader)
}

// SetReplicaSource marks the database as a read-only replica of the
// leader at addr ("" reverts to leader mode). While set, every
// mutation and out-of-band Save fails with *ReadOnlyError; state only
// changes through ReplApply/ReplRotate/ReplInstallSnapshot.
func (db *DB) SetReplicaSource(addr string) {
	if addr == "" {
		db.replicaSrc.Store(nil)
		return
	}
	db.replicaSrc.Store(&addr)
}

// ReplicaSource returns the leader address, or "" on a leader.
func (db *DB) ReplicaSource() string {
	if p := db.replicaSrc.Load(); p != nil {
		return *p
	}
	return ""
}

// readOnlyErr returns the rejection for client-originated writes on a
// replica, nil on a leader.
func (db *DB) readOnlyErr() error {
	if p := db.replicaSrc.Load(); p != nil {
		return &ReadOnlyError{Leader: *p}
	}
	return nil
}

// ReplPosition returns the live journal position: the sequence of the
// current snapshot/journal pair and the byte length of the journal's
// intact record prefix. After Open this is the recovered position a
// replication handshake resumes from. (0, 0) when not durable.
func (db *DB) ReplPosition() (seq uint64, off int64) {
	if db.dur == nil {
		return 0, 0
	}
	db.dur.mu.Lock()
	defer db.dur.mu.Unlock()
	return db.dur.seq, db.dur.off
}

// WatchJournal returns a channel closed on the next journal append,
// rotation, or snapshot install. Callers re-fetch a fresh channel
// BEFORE scanning for new data, so a write landing between the scan
// and the wait cannot be missed. Nil when not durable.
func (db *DB) WatchJournal() <-chan struct{} {
	if db.dur == nil {
		return nil
	}
	db.dur.mu.Lock()
	defer db.dur.mu.Unlock()
	return db.dur.watch
}

// PinSegment protects sequence seq's snapshot and journal files from
// rotation pruning while a replication tail reads them. The returned
// release is idempotent. A no-op when not durable.
func (db *DB) PinSegment(seq uint64) (release func()) {
	if db.dur == nil {
		return func() {}
	}
	dur := db.dur
	dur.mu.Lock()
	dur.pins[seq]++
	dur.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			dur.mu.Lock()
			if dur.pins[seq]--; dur.pins[seq] <= 0 {
				delete(dur.pins, seq)
			}
			dur.mu.Unlock()
		})
	}
}

// JournalFile returns the path of sequence seq's journal ("" when not
// durable). The file is only guaranteed to outlive rotation while
// pinned.
func (db *DB) JournalFile(seq uint64) string {
	if db.dur == nil {
		return ""
	}
	return journalPath(db.dur.dir, seq)
}

// SnapshotFile returns the path of sequence seq's snapshot ("" when
// not durable).
func (db *DB) SnapshotFile(seq uint64) string {
	if db.dur == nil {
		return ""
	}
	return snapshotPath(db.dur.dir, seq)
}

// ScanRecords reads raw framed journal records from path starting at
// byte offset off, stopping after maxBytes of records have been
// collected (at least one record is returned if one is intact) or at
// the first torn/garbage tail — a torn tail is not an error, the scan
// simply ends at the last record boundary, at the same record as
// recovery (scanJournal). It returns the records and the offset where
// the scan ended.
func ScanRecords(path string, off int64, maxBytes int64) ([][]byte, int64, error) {
	var recs [][]byte
	var total int64
	end, _, err := scanJournal(path, off, func(raw []byte, _ journalOp) bool {
		recs = append(recs, raw)
		total += int64(len(raw))
		return total < maxBytes
	})
	return recs, end, err
}

// ReplApply appends one raw journal record shipped by the leader to
// the local journal (fsynced, exactly the bytes the leader wrote, so
// the mirror stays byte-identical) and applies it in memory, in
// stream order, through the leader's own append (appendAndApply). On
// a non-durable replica the record is validated and applied in memory
// only.
func (db *DB) ReplApply(raw []byte) error {
	op, err := decodeFramedRecord(raw)
	if err != nil {
		return fmt.Errorf("gdb: repl apply: %w", err)
	}
	var applyErr error
	if err := db.appendAndApply(raw, FPReplApplyAppend, FPReplApplySync, func() { applyErr = db.applyOp(op) }); err != nil {
		return err
	}
	if applyErr != nil {
		return applyErr
	}
	obs.ReplRecordsApplied.Inc()
	return nil
}

// ReplRotate mirrors a leader rotation: it cuts a local snapshot under
// newSeq and swaps in a fresh journal, keeping the follower's file
// sequence in lockstep with the leader's. The stream guarantees every
// record of the retiring journal was applied first, so the snapshot
// cut here captures the same state the leader's did.
func (db *DB) ReplRotate(newSeq uint64) error {
	if db.dur == nil {
		return nil // nothing on disk to rotate
	}
	db.dur.mu.Lock()
	cur := db.dur.seq
	db.dur.mu.Unlock()
	if newSeq != cur+1 {
		return fmt.Errorf("gdb: repl rotate: stream announced seq %d but the local journal is at %d", newSeq, cur)
	}
	return db.save()
}

// ReplInstallSnapshot replaces the entire database with a snapshot
// streamed from the leader: the bytes are spooled to a temp file,
// validated (magic, version, every section CRC), and — on a durable
// replica — installed under the leader's sequence with a fresh empty
// journal, deleting all prior local history. The caller clears its
// persisted stream position BEFORE installing, so a crash anywhere in
// here degrades to another full sync, never to a mixed history.
func (db *DB) ReplInstallSnapshot(seq uint64, r io.Reader) (err error) {
	dir := os.TempDir()
	if db.dur != nil {
		dir = db.dur.dir
	}
	tmp, stores, err := replRecvSnapshot(dir, r)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			// Best-effort cleanup; a stale temp file is inert and swept on Open.
			_ = os.Remove(tmp)
		}
	}()

	if db.dur == nil {
		db.replaceStores(stores)
		return nil
	}

	dur := db.dur
	dur.commitMu.Lock()
	defer dur.commitMu.Unlock()
	dur.mu.Lock()
	defer dur.mu.Unlock()
	if dur.closed {
		return ErrClosed
	}

	// Retire the live journal. Close errors cannot lose data here: the
	// whole file is about to be deleted and replaced by leader history.
	if dur.jf != nil {
		//lint:ignore errdrop the journal file is deleted on the next line; its buffered state is irrelevant
		_ = dur.jf.Close()
		dur.jf = nil
	}

	// Delete ALL local history. This must actually succeed — a survivor
	// snapshot newer than the installed one would win the next recovery
	// scan and resurrect the abandoned history.
	entries, err := os.ReadDir(dur.dir)
	if err != nil {
		dur.broken = err
		return fmt.Errorf("gdb: repl install: %w", err)
	}
	for _, e := range entries {
		_, isSnap := parseSeq(e.Name(), "snap-", ".snap")
		_, isWal := parseSeq(e.Name(), "wal-", ".log")
		if !isSnap && !isWal {
			continue
		}
		if rerr := os.Remove(filepath.Join(dur.dir, e.Name())); rerr != nil {
			dur.broken = rerr
			return fmt.Errorf("gdb: repl install: clearing old history: %w", rerr)
		}
	}

	if err := fault.Inject(FPReplInstallRename); err != nil {
		dur.broken = err
		return fmt.Errorf("gdb: repl install: %w", err)
	}
	if err := os.Rename(tmp, snapshotPath(dur.dir, seq)); err != nil {
		dur.broken = err
		return fmt.Errorf("gdb: repl install: %w", err)
	}
	jf, err := os.OpenFile(journalPath(dur.dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		dur.broken = err
		return fmt.Errorf("gdb: repl install: %w", err)
	}
	if err := syncDir(dur.dir); err != nil {
		dur.broken = err
		//lint:ignore errdrop the dirsync failure is the error to surface
		_ = jf.Close()
		return fmt.Errorf("gdb: repl install: %w", err)
	}

	db.replaceStores(stores)
	dur.seq = seq
	dur.off = 0
	dur.jf = jf
	dur.broken = nil
	dur.notifyLocked()
	return nil
}

// replaceStores swaps the whole graph map, dropping cached results of
// every store being replaced.
func (db *DB) replaceStores(stores map[string]*GraphStore) {
	db.mu.Lock()
	old := db.graphs
	db.graphs = stores
	db.mu.Unlock()
	for _, s := range old {
		db.cache.DropStore(s.StoreID())
	}
}

// replRecvSnapshot spools the streamed snapshot into a temp file in
// dir, fsyncs it, and validates it with the same reader recovery
// uses. On success the temp file's contents are exactly the leader's
// snapshot file.
func replRecvSnapshot(dir string, r io.Reader) (string, map[string]*GraphStore, error) {
	if err := fault.Inject(FPReplInstallWrite); err != nil {
		return "", nil, fmt.Errorf("gdb: repl install write: %w", err)
	}
	f, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", nil, fmt.Errorf("gdb: repl install write: %w", err)
	}
	path := f.Name()
	fail := func(step string, err error) (string, map[string]*GraphStore, error) {
		//lint:ignore errdrop best-effort cleanup after the install already failed
		_ = f.Close()
		// Ditto; a stale temp file is inert and swept on Open.
		_ = os.Remove(path)
		return "", nil, fmt.Errorf("gdb: repl install %s: %w", step, err)
	}
	if _, err := io.Copy(fault.Writer(FPReplInstallWrite, f), r); err != nil {
		return fail("write", err)
	}
	if err := fault.Inject(FPReplInstallSync); err != nil {
		return fail("sync", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	stores, err := readSnapshotFile(path)
	if err != nil {
		// The temp file holds a damaged stream; discard it.
		_ = os.Remove(path)
		return "", nil, fmt.Errorf("gdb: repl install: streamed snapshot invalid: %w", err)
	}
	return path, stores, nil
}
