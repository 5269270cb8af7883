package gdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mscfpq/internal/cypher"
	"mscfpq/internal/fault"
	"mscfpq/internal/obs"
)

// durability is the crash-safety layer attached to a DB opened with
// Open: an append-only operation journal paired with atomic disk
// snapshots, plus the background auto-saver driven by
// Policy.SaveInterval.
//
// Invariant: snapshot seq N contains exactly the mutations journaled
// in wal sequences < N plus those of wal N that never happened (wal N
// starts empty at rotation). commitMu enforces the cut: every mutation
// holds it shared from journal append through in-memory apply, and
// Save holds it exclusively from state capture through journal
// rotation, so no acknowledged mutation can fall between a snapshot
// and the journal that survives it.
type durability struct {
	dir string

	// commitMu orders mutations against snapshots (see above).
	commitMu sync.RWMutex

	// mu serializes journal appends and stays held through each
	// mutation's in-memory apply (see appendAndApply), so live apply order
	// always matches journal order — the order crash replay uses.
	mu     sync.Mutex
	seq    uint64   // guarded by mu: sequence of the live snapshot/journal pair
	off    int64    // guarded by mu: byte length of the live journal's intact record prefix
	jf     *os.File // guarded by mu: open journal, nil after Close
	closed bool     // guarded by mu
	broken error    // guarded by mu: set when a failed append could not be rolled back; a successful Save clears it

	// watch is closed (and replaced) on every journal append, rotation,
	// or snapshot install, so replication tails can block for new data
	// without polling.
	watch chan struct{} // guarded by mu

	// pins holds sequences whose snapshot/journal files a live reader
	// (a replication tail mid-transfer) still needs; prune spares them.
	pins map[uint64]int // guarded by mu

	// Auto-saver lifecycle: kick wakes it on policy changes, stop ends
	// it, done closes when it exits.
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// ErrClosed is returned by mutations and saves on a closed database.
var ErrClosed = errors.New("gdb: database is closed")

// ErrNotDurable is returned by Save on a database without a data
// directory.
var ErrNotDurable = errors.New("gdb: database has no data directory (opened with New, not Open)")

// Open loads (or initializes) a durable database rooted at dir:
// leftover temp files are discarded, the newest valid snapshot is
// loaded (older ones are fallbacks against corruption), its paired
// journal is replayed — truncating a torn tail instead of failing —
// and the journal is reopened for appending. The returned DB journals
// every mutating command before acknowledging it; use Save (or
// Policy.SaveInterval) to cut snapshots and Close to detach cleanly.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gdb: open %s: %w", dir, err)
	}
	removeTempFiles(dir)

	db := New()
	dur := &durability{
		dir:   dir,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		watch: make(chan struct{}),
		pins:  map[uint64]int{},
	}

	seq, stores, err := loadNewestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.graphs = stores
	db.mu.Unlock()

	good, err := dur.replayInto(db, seq)
	if err != nil {
		return nil, err
	}

	jf, err := os.OpenFile(journalPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("gdb: open journal: %w", err)
	}
	dur.seq = seq
	dur.off = good
	dur.jf = jf
	db.dur = dur
	go db.autoSaver()
	return db, nil
}

// Durable reports whether the database journals to disk.
func (db *DB) Durable() bool { return db.dur != nil }

// DataDir returns the durable database's directory ("" when opened
// with New).
func (db *DB) DataDir() string {
	if db.dur == nil {
		return ""
	}
	return db.dur.dir
}

// removeTempFiles discards snapshot temp files left by a crash
// mid-write; they were never renamed into place so they hold nothing
// durable.
func removeTempFiles(dir string) {
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return
	}
	for _, t := range tmps {
		// Best-effort cleanup; a stale temp file is inert.
		_ = os.Remove(t)
	}
}

// snapshotSeqs lists the sequences with a snapshot file in dir,
// ascending.
func snapshotSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// loadNewestSnapshot returns the stores of the newest snapshot that
// validates, falling back to older ones on damage. No snapshot at all
// is a fresh database (seq 0); snapshots present but none valid is an
// error — silently starting empty would masquerade as data loss.
func loadNewestSnapshot(dir string) (uint64, map[string]*GraphStore, error) {
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("gdb: open %s: %w", dir, err)
	}
	if len(seqs) == 0 {
		return 0, map[string]*GraphStore{}, nil
	}
	var firstErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		stores, err := readSnapshotFile(snapshotPath(dir, seqs[i]))
		if err == nil {
			return seqs[i], stores, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, nil, fmt.Errorf("gdb: no valid snapshot in %s (newest: %w)", dir, firstErr)
}

// Failpoints on the error-handling edges of durability: rolling a
// partial journal record back, truncating a torn tail during
// recovery, and the final sync on Close. They live outside the chaos
// suite's gdb.snapshot./gdb.journal. enumeration on purpose — those
// points must all fire during a plain Save/Query pass, while these
// only trigger on failure paths (see faultpath_test.go).
const (
	FPRollbackTruncate = "gdb.rollback.truncate"
	FPRecoverTruncate  = "gdb.recover.truncate"
	FPCloseSync        = "gdb.close.sync"
)

var _ = fault.Declare(FPRollbackTruncate, FPRecoverTruncate, FPCloseSync)

// truncateJournal rolls the live journal back to size, dropping the
// bytes of a partially appended record.
func truncateJournal(f *os.File, size int64) error {
	if err := fault.Inject(FPRollbackTruncate); err != nil {
		return err
	}
	return f.Truncate(size)
}

// syncJournalOnClose flushes the journal one last time before the
// file handle is released.
func syncJournalOnClose(f *os.File) error {
	if err := fault.Inject(FPCloseSync); err != nil {
		return err
	}
	return f.Sync()
}

// replayInto re-applies the journal paired with snapshot seq and
// truncates any torn tail so the next append starts on a record
// boundary. It returns the byte length of the intact record prefix —
// the recovered journal offset a replication handshake resumes from. A
// missing journal is an empty one.
func (dur *durability) replayInto(db *DB, seq uint64) (int64, error) {
	path := journalPath(dur.dir, seq)
	var applyErr error
	good, torn, err := scanJournal(path, 0, func(_ []byte, op journalOp) bool {
		applyErr = db.applyOp(op)
		return applyErr == nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err == nil {
		err = applyErr
	}
	if err != nil {
		return 0, fmt.Errorf("gdb: journal replay: %w", err)
	}
	if torn {
		if err := fault.Inject(FPRecoverTruncate); err != nil {
			return 0, fmt.Errorf("gdb: truncating torn journal tail: %w", err)
		}
		if err := os.Truncate(path, good); err != nil {
			return 0, fmt.Errorf("gdb: truncating torn journal tail: %w", err)
		}
	}
	return good, nil
}

// applyOp applies one decoded journal record, in recovery and on a
// follower, through the same function per op kind the live command
// runs: runCreate, putStore, dropStore.
func (db *DB) applyOp(op journalOp) error {
	switch op.op {
	case opCypher:
		q, err := cypher.Parse(op.arg)
		if err != nil || q.Create == nil {
			return fmt.Errorf("gdb: journaled statement no longer parses as a write: %q", op.arg)
		}
		// Replay repeats the original call exactly; a statement that
		// failed halfway when journaled fails at the same point now,
		// reproducing the acknowledged (partial) state.
		//lint:ignore errdrop the op's error was already delivered to the client when it ran live
		_, _ = db.runCreate(op.name, q)
	case opRestore:
		s, err := ReadStore(strings.NewReader(op.arg))
		if err != nil {
			return fmt.Errorf("gdb: journaled restore of %q no longer decodes: %w", op.name, err)
		}
		db.putStore(op.name, s)
	case opDelete:
		db.dropStore(op.name)
	}
	return nil
}

// commit journals a client mutation (when durable) and then runs
// apply; a replica refuses it.
func (db *DB) commit(op journalOp, apply func()) error {
	if err := db.readOnlyErr(); err != nil {
		return err
	}
	var rec []byte
	if db.dur != nil {
		rec = op.encode()
	}
	return db.appendAndApply(rec, FPJournalAppend, FPJournalSync, apply)
}

// appendAndApply appends the framed record rec to the live journal,
// fsynced, and then runs apply: the one journal append, for a leader's
// commits and a follower's ReplApply, which name its failpoints. On an
// in-memory database it only runs apply. The commit lock is held
// shared across both so a concurrent Save sees either none or all of
// the mutation, and dur.mu — the lock that orders journal appends —
// stays held through apply so mutations reach memory in exactly the
// order they reached the journal. Replay runs in journal order, and
// applies are order-sensitive (runCreate assigns vertex IDs from the
// current vertex count, Restore replaces whole stores), so a live
// apply order that diverged from the append order would make crash
// recovery reconstruct a state that never existed. Both locks unlock
// by defer so a panicking handler (or an armed panic failpoint) cannot
// wedge the database. The journal append is fsynced before apply
// runs: an acknowledged mutation is always recoverable.
func (db *DB) appendAndApply(rec []byte, fpAppend, fpSync string, apply func()) error {
	dur := db.dur
	if dur == nil {
		apply()
		return nil
	}
	dur.commitMu.RLock()
	defer dur.commitMu.RUnlock()
	dur.mu.Lock()
	defer dur.mu.Unlock()
	if dur.closed {
		return ErrClosed
	}
	if dur.broken != nil {
		return fmt.Errorf("gdb: journal unusable (a snapshot rotates in a fresh one): %w", dur.broken)
	}
	st, err := dur.jf.Stat()
	if err != nil {
		return fmt.Errorf("gdb: journal append: %w", err)
	}
	if err := appendJournal(dur.jf, rec, fpAppend, fpSync); err != nil {
		// Roll the partial record back: replay stops at the first
		// torn record, so leaving its bytes in place would strand
		// every record appended after it. If even the rollback fails
		// the journal is unusable until a snapshot rotates it out.
		if terr := truncateJournal(dur.jf, st.Size()); terr != nil {
			dur.broken = terr
		}
		return err
	}
	dur.off += int64(len(rec))
	dur.notifyLocked()
	apply()
	return nil
}

// notifyLocked wakes every journal watcher. Caller holds dur.mu.
func (dur *durability) notifyLocked() {
	close(dur.watch)
	dur.watch = make(chan struct{})
}

// Save cuts a snapshot: the full database image is written atomically
// under the next sequence, the journal rotates to a fresh file, and
// stale snapshots/journals are pruned (the previous snapshot and its
// paired journal are kept as a fallback against bit rot). Concurrent
// mutations block for the duration; queries do not. This is the
// GRAPH.SAVE command. On a replica, rotation is driven by the
// replication stream (ReplRotate) so the local file sequence stays in
// lockstep with the leader's; an out-of-band Save is refused.
func (db *DB) Save() error {
	if err := db.readOnlyErr(); err != nil {
		return err
	}
	return db.save()
}

// save is Save without the replica-mode gate — the shared path for
// GRAPH.SAVE on a leader and lockstep rotation on a follower.
func (db *DB) save() error {
	if db.dur == nil {
		return ErrNotDurable
	}
	dur := db.dur
	dur.commitMu.Lock()
	defer dur.commitMu.Unlock()

	dur.mu.Lock()
	closed, seq := dur.closed, dur.seq
	dur.mu.Unlock()
	if closed {
		return ErrClosed
	}

	db.mu.RLock()
	stores := make(map[string]*GraphStore, len(db.graphs))
	for name, s := range db.graphs {
		stores[name] = s
	}
	db.mu.RUnlock()

	// Crash-ordering invariant: the next journal is created and made
	// durable BEFORE the snapshot is renamed into place, so a snapshot
	// that is visible always has its paired journal on disk — recovery
	// never faces a snapshot whose acknowledged successors lived in a
	// journal it does not know to replay. A failed (or crashed) save
	// leaves at worst a stale empty wal file, which the next save
	// truncates and reuses.
	next := seq + 1
	nf, err := dur.prepareJournal(next)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(dur.dir, next, stores); err != nil {
		//lint:ignore errdrop the snapshot failure is the error to surface; the spare journal file is inert
		_ = nf.Close()
		// Undo — snapshot first: when the failure struck after the
		// rename (the dirsync step), leaving the new snapshot visible
		// while journaling continues under the old sequence would
		// strand every later acked record at recovery. ErrNotExist just
		// means the rename never happened; any other removal failure
		// poisons the journal so mutations stop until a Save heals it.
		if rerr := os.Remove(snapshotPath(dur.dir, next)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			dur.mu.Lock()
			dur.broken = rerr
			dur.mu.Unlock()
		} else {
			// Best-effort cleanup; a stale empty journal is truncated on the next save.
			_ = os.Remove(journalPath(dur.dir, next))
		}
		return err
	}
	// The new snapshot is durable: swap journals. The swap is pure
	// memory and cannot fail; a close error on the retired journal
	// cannot lose data (every record in it was already fsynced). A
	// poisoned journal is healed here — its garbage tail retires with
	// the old file. Close may have raced the snapshot write (the
	// auto-saver can be inside Save when Close runs): re-check closed
	// before installing, or the new journal fd would leak into a
	// closed durability and old would be nil. Retiring the fresh pair
	// instead is safe — Save held commitMu throughout, so the state
	// the snapshot captured is exactly what the journal Close fsyncs
	// already covers.
	dur.mu.Lock()
	if dur.closed {
		dur.mu.Unlock()
		//lint:ignore errdrop best-effort retirement of the unused journal fd
		_ = nf.Close()
		// Best-effort cleanup; a leftover pair is consistent (see above) and recovery validates it.
		_ = os.Remove(snapshotPath(dur.dir, next))
		// Ditto.
		_ = os.Remove(journalPath(dur.dir, next))
		return ErrClosed
	}
	old := dur.jf
	dur.jf = nf
	dur.seq = next
	dur.off = 0
	dur.broken = nil
	dur.notifyLocked()
	dur.mu.Unlock()
	obs.DurRotations.Inc()
	if old != nil {
		if err := old.Close(); err != nil {
			return fmt.Errorf("gdb: journal rotate: closing previous journal: %w", err)
		}
	}
	dur.prune(next)
	return nil
}

// prepareJournal creates (or truncates) the journal of the next
// sequence and fsyncs the directory, so the file is durable before the
// snapshot it pairs with becomes visible.
func (dur *durability) prepareJournal(next uint64) (*os.File, error) {
	if err := fault.Inject(FPJournalRotate); err != nil {
		return nil, fmt.Errorf("gdb: journal rotate: %w", err)
	}
	nf, err := os.OpenFile(journalPath(dur.dir, next), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("gdb: journal rotate: %w", err)
	}
	if err := syncDir(dur.dir); err != nil {
		//lint:ignore errdrop the dirsync failure is the error to surface; the spare journal file is inert
		_ = nf.Close()
		return nil, fmt.Errorf("gdb: journal rotate: %w", err)
	}
	return nf, nil
}

// prune removes everything older than the fallback snapshot/journal
// pair. The previous snapshot is kept as a fallback against bit rot
// TOGETHER WITH its paired journal: a recovery that falls back to
// snap N-1 replays wal N-1, reaching the state snap N captured, so it
// loses none of the acknowledged ops that journal fsynced (pruning
// only the journal would silently drop them — replay treats a missing
// file as empty). Sequence 0 has no snapshot (it is the empty genesis
// store, unusable as a fallback once snap-1 exists), so at current 1
// only the live pair is kept. Sequences pinned by a live reader (a
// replication tail mid-transfer, see PinSegment) are spared no matter
// how old — deleting a wal segment under an open tail would tear the
// stream. Best-effort: a leftover file wastes disk but cannot corrupt
// recovery, which always prefers the newest valid pair.
func (dur *durability) prune(current uint64) {
	entries, err := os.ReadDir(dur.dir)
	if err != nil {
		return
	}
	dur.mu.Lock()
	pinned := make(map[uint64]bool, len(dur.pins))
	for seq := range dur.pins {
		pinned[seq] = true
	}
	dur.mu.Unlock()
	keep := current // oldest sequence retained
	if current >= 2 {
		keep = current - 1
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && seq < keep && !pinned[seq] {
			// Best-effort pruning; stale snapshots are harmless.
			_ = os.Remove(filepath.Join(dur.dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok && seq < keep && !pinned[seq] {
			// Best-effort pruning; retired journals are harmless.
			_ = os.Remove(filepath.Join(dur.dir, e.Name()))
		}
	}
}

// Close stops the auto-saver and detaches the journal after a final
// fsync. Further mutations and saves return ErrClosed; queries keep
// answering from memory. Close does not cut a final snapshot — callers
// wanting one call Save first (gsql-server does on graceful
// shutdown).
func (db *DB) Close() error {
	if db.dur == nil {
		return nil
	}
	dur := db.dur
	dur.mu.Lock()
	if dur.closed {
		dur.mu.Unlock()
		return nil
	}
	dur.closed = true
	jf := dur.jf
	dur.jf = nil
	dur.mu.Unlock()

	close(dur.stop)
	<-dur.done

	if err := syncJournalOnClose(jf); err != nil {
		//lint:ignore errdrop the sync failure is the error to surface; close cannot add to it
		_ = jf.Close()
		return fmt.Errorf("gdb: close: %w", err)
	}
	if err := jf.Close(); err != nil {
		return fmt.Errorf("gdb: close: %w", err)
	}
	return nil
}

// autoSaver cuts snapshots every Policy.SaveInterval. A zero interval
// parks until SetPolicy kicks it; save failures are reported to the
// policy log and retried next interval.
func (db *DB) autoSaver() {
	defer close(db.dur.done)
	for {
		var tick <-chan time.Time
		var timer *time.Timer
		if iv := db.Policy().SaveInterval; iv > 0 {
			timer = time.NewTimer(iv)
			tick = timer.C
		}
		select {
		case <-db.dur.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-db.dur.kick:
			if timer != nil {
				timer.Stop()
			}
		case <-tick:
			if err := db.Save(); err != nil && !errors.Is(err, ErrClosed) {
				if l := db.Policy().Log; l != nil {
					l.Printf("auto-save failed: %v", err)
				}
			}
		}
	}
}

// kickAutoSaver wakes the auto-saver so a policy change takes effect
// immediately.
func (db *DB) kickAutoSaver() {
	if db.dur == nil {
		return
	}
	select {
	case db.dur.kick <- struct{}{}:
	default:
	}
}
