package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/gdb"
	"mscfpq/internal/obs"
	"mscfpq/internal/resp"
)

// Replica is the follower side: it maintains one stream from the
// leader, mirroring journal records (and rotations) into its local
// database strictly in stream order, bootstrapping from a snapshot
// when it has no resumable history. The database should be in replica
// mode (db.SetReplicaSource) so client writes are refused; queries
// keep serving from pinned MVCC snapshots throughout.
type Replica struct {
	db     *gdb.DB
	leader string

	// Reconnect backoff window (jittered exponential).
	minBackoff time.Duration
	maxBackoff time.Duration

	mu         sync.Mutex
	connected  bool      // guarded by mu
	pos        position  // guarded by mu: last applied local position
	leaderPos  position  // guarded by mu: leader's committed position, from stream frames
	caughtUp   bool      // guarded by mu: pos has reached leaderPos
	caughtUpAt time.Time // guarded by mu: last instant caughtUp held (lag anchors here)
	fullsyncs  int64     // guarded by mu
	reconnects int64     // guarded by mu
}

// New builds a replica of the leader at addr. Call Run to start
// streaming.
func New(db *gdb.DB, leaderAddr string) *Replica {
	return &Replica{
		db:         db,
		leader:     leaderAddr,
		minBackoff: 50 * time.Millisecond,
		maxBackoff: 2 * time.Second,
		caughtUpAt: time.Now(),
	}
}

// Run streams from the leader until ctx is cancelled, reconnecting
// with jittered exponential backoff on any stream failure. It returns
// ctx.Err().
func (r *Replica) Run(ctx context.Context) error {
	backoff := r.minBackoff
	for first := true; ; first = false {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !first {
			obs.ReplReconnects.Inc()
			r.mu.Lock()
			r.reconnects++
			r.mu.Unlock()
			// Full jitter over the window so a restarted leader is not
			// hit by every replica in lockstep.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff/2 + time.Duration(rand.Int64N(int64(backoff)))):
			}
			if backoff < r.maxBackoff {
				backoff *= 2
			}
		}
		prevSeq, prevOff := r.Position()
		// Stream failures are retried here; reconnects surface in INFO and obs.
		_ = r.once(ctx)
		// A session that made progress earns a fresh backoff window; a
		// leader that keeps dying instantly keeps the long one.
		if seq, off := r.Position(); seq != prevSeq || off != prevOff {
			backoff = r.minBackoff
		}
	}
}

// once runs one connect-handshake-stream session; any error tears the
// session down for a reconnect.
func (r *Replica) once(ctx context.Context) error {
	if err := fault.Inject(FPHandshake); err != nil {
		return fmt.Errorf("repl: handshake: %w", err)
	}
	conn, err := net.DialTimeout("tcp", r.leader, 5*time.Second)
	if err != nil {
		return fmt.Errorf("repl: dial leader %s: %w", r.leader, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	pos, err := r.handshake(br, bw)
	if err != nil {
		return err
	}
	r.setConnected(true, pos)
	defer r.setConnected(false, position{})

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		frame, err := resp.Read(br)
		if err != nil {
			return fmt.Errorf("repl: stream read: %w", err)
		}
		tag, err := frameTag(frame)
		if err != nil {
			return err
		}
		switch tag {
		case frameRec:
			pos, err = r.applyRecord(frame, pos)
		case frameRotate:
			pos, err = r.rotate(frame, pos)
		case framePing:
			err = r.notePing(frame, pos)
		default:
			err = fmt.Errorf("repl: unexpected frame %q mid-stream", tag)
		}
		if err != nil {
			return err
		}
	}
}

// handshake sends SYNC with the persisted history identity and
// recovered journal position, then follows the leader's CONTINUE or
// FULLSYNC decision. It returns the stream's starting position.
func (r *Replica) handshake(br *bufio.Reader, bw *bufio.Writer) (position, error) {
	replid := loadSource(r.db.DataDir())
	seq, off := r.db.ReplPosition()
	if replid == noHistory {
		// Without an identity the offsets are meaningless; present none.
		seq, off = 0, 0
	}
	cmd := resp.Arr(resp.Bulk("SYNC"), resp.Bulk(replid),
		resp.Bulk(fmt.Sprintf("%d", seq)), resp.Bulk(fmt.Sprintf("%d", off)))
	if err := resp.Write(bw, cmd); err != nil {
		return position{}, fmt.Errorf("repl: handshake send: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return position{}, fmt.Errorf("repl: handshake send: %w", err)
	}
	reply, err := resp.Read(br)
	if err != nil {
		return position{}, fmt.Errorf("repl: handshake read: %w", err)
	}
	if reply.Kind == resp.ErrorString {
		return position{}, fmt.Errorf("repl: leader rejected SYNC: %s", reply.Str)
	}
	tag, err := frameTag(reply)
	if err != nil {
		return position{}, err
	}
	switch tag {
	case frameContinue:
		cseq, err := frameInt(reply, 1)
		if err != nil {
			return position{}, err
		}
		coff, err := frameInt(reply, 2)
		if err != nil {
			return position{}, err
		}
		got := position{seq: uint64(cseq), off: coff}
		if got != (position{seq: seq, off: off}) {
			return position{}, fmt.Errorf("repl: leader continued at %v, asked for %d:%d", got, seq, off)
		}
		return got, nil
	case frameFullsync:
		return r.bootstrap(reply, br)
	default:
		return position{}, fmt.Errorf("repl: unexpected handshake reply %q", tag)
	}
}

// bootstrap receives and installs a full snapshot transfer. The
// recorded history identity is cleared before the install and written
// after it, so a crash at any point leaves a directory that requests a
// clean full sync instead of resuming into a half-installed history.
func (r *Replica) bootstrap(reply resp.Value, br *bufio.Reader) (position, error) {
	if len(reply.Array) < 3 {
		return position{}, fmt.Errorf("repl: malformed FULLSYNC frame")
	}
	leaderID := reply.Array[1].Str
	seq, err := frameInt(reply, 2)
	if err != nil {
		return position{}, err
	}
	if err := clearSource(r.db.DataDir()); err != nil {
		return position{}, err
	}
	if err := r.db.ReplInstallSnapshot(uint64(seq), &snapStream{br: br}); err != nil {
		return position{}, err
	}
	if err := saveSource(r.db.DataDir(), leaderID); err != nil {
		return position{}, err
	}
	obs.ReplSnapshotBootstraps.Inc()
	r.mu.Lock()
	r.fullsyncs++
	r.mu.Unlock()
	return position{seq: uint64(seq)}, nil
}

// snapStream adapts the SNAP/SNAPEND frame sequence into the io.Reader
// gdb.ReplInstallSnapshot spools from, verifying the byte count the
// leader declares.
type snapStream struct {
	br    *bufio.Reader
	buf   []byte
	total int64
	done  bool
}

func (s *snapStream) Read(p []byte) (int, error) {
	for len(s.buf) == 0 {
		if s.done {
			return 0, io.EOF
		}
		frame, err := resp.Read(s.br)
		if err != nil {
			return 0, fmt.Errorf("repl: snapshot stream: %w", err)
		}
		tag, err := frameTag(frame)
		if err != nil {
			return 0, err
		}
		switch tag {
		case frameSnap:
			if len(frame.Array) < 2 {
				return 0, fmt.Errorf("repl: malformed SNAP frame")
			}
			s.buf = []byte(frame.Array[1].Str)
			s.total += int64(len(s.buf))
		case frameSnapEnd:
			want, err := frameInt(frame, 1)
			if err != nil {
				return 0, err
			}
			if want != s.total {
				return 0, fmt.Errorf("repl: snapshot transfer short: got %d bytes, leader sent %d", s.total, want)
			}
			s.done = true
		default:
			return 0, fmt.Errorf("repl: unexpected frame %q during snapshot transfer", tag)
		}
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// applyRecord mirrors one REC frame: append the raw record to the
// local journal (fsynced) and apply it, exactly as the leader did.
func (r *Replica) applyRecord(frame resp.Value, pos position) (position, error) {
	if len(frame.Array) < 3 {
		return pos, fmt.Errorf("repl: malformed REC frame")
	}
	seq, err := frameInt(frame, 1)
	if err != nil {
		return pos, err
	}
	if uint64(seq) != pos.seq {
		return pos, fmt.Errorf("repl: REC for journal %d while mirroring %d", seq, pos.seq)
	}
	raw := []byte(frame.Array[2].Str)
	if err := fault.Inject(FPApply); err != nil {
		return pos, fmt.Errorf("repl: apply: %w", err)
	}
	if err := r.db.ReplApply(raw); err != nil {
		return pos, err
	}
	pos.off += int64(len(raw))
	r.advance(pos)
	return pos, nil
}

// rotate mirrors a ROTATE frame: the local database cuts its own
// snapshot under the new sequence, staying in file-level lockstep.
func (r *Replica) rotate(frame resp.Value, pos position) (position, error) {
	seq, err := frameInt(frame, 1)
	if err != nil {
		return pos, err
	}
	if err := fault.Inject(FPRotate); err != nil {
		return pos, fmt.Errorf("repl: rotate: %w", err)
	}
	if err := r.db.ReplRotate(uint64(seq)); err != nil {
		return pos, err
	}
	pos = position{seq: uint64(seq)}
	r.advance(pos)
	return pos, nil
}

// notePing records the leader's committed position for lag tracking.
func (r *Replica) notePing(frame resp.Value, pos position) error {
	seq, err := frameInt(frame, 1)
	if err != nil {
		return err
	}
	off, err := frameInt(frame, 2)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.leaderPos = position{seq: uint64(seq), off: off}
	r.refreshLagLocked()
	r.mu.Unlock()
	return nil
}

// advance publishes a new local position.
func (r *Replica) advance(pos position) {
	r.mu.Lock()
	r.pos = pos
	// Every record the leader ships was committed there first, so the
	// leader is known to be at least at our position.
	if r.leaderPos.before(pos) {
		r.leaderPos = pos
	}
	r.refreshLagLocked()
	r.mu.Unlock()
}

// refreshLagLocked recomputes caught-up state and the lag gauge.
// Caller holds mu.
func (r *Replica) refreshLagLocked() {
	r.caughtUp = !r.pos.before(r.leaderPos)
	if r.caughtUp {
		r.caughtUpAt = time.Now()
		obs.ReplLagSeconds.Set(0)
	} else {
		obs.ReplLagSeconds.Set(int64(time.Since(r.caughtUpAt).Seconds()))
	}
}

// setConnected publishes stream liveness (and the negotiated position
// on connect).
func (r *Replica) setConnected(up bool, pos position) {
	r.mu.Lock()
	r.connected = up
	if up {
		r.pos = pos
		if r.leaderPos.before(pos) {
			r.leaderPos = pos
		}
		r.refreshLagLocked()
	}
	r.mu.Unlock()
}

// Position returns the last applied local stream position.
func (r *Replica) Position() (seq uint64, off int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos.seq, r.pos.off
}

// InfoLines renders the follower's INFO replication section. Offset
// fields are monotonic in (journal_seq, journal_offset) order while a
// single Run loop owns the database.
func (r *Replica) InfoLines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	state := "connecting"
	if r.connected {
		state = "connected"
	}
	lag := time.Duration(0)
	if !r.caughtUp {
		lag = time.Since(r.caughtUpAt)
	}
	return []string{
		"role:replica",
		"leader:" + r.leader,
		"state:" + state,
		fmt.Sprintf("journal_seq:%d", r.pos.seq),
		fmt.Sprintf("journal_offset:%d", r.pos.off),
		fmt.Sprintf("leader_seq:%d", r.leaderPos.seq),
		fmt.Sprintf("leader_offset:%d", r.leaderPos.off),
		fmt.Sprintf("lag_seconds:%d", int64(lag.Seconds())),
		fmt.Sprintf("sync_full:%d", r.fullsyncs),
		fmt.Sprintf("reconnects:%d", r.reconnects),
	}
}
