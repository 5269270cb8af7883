package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/gdb"
	"mscfpq/internal/obs"
	"mscfpq/internal/resp"
)

// pingEvery bounds how long an idle stream stays silent: the leader
// sends a PING (liveness + its current position, which is what lag is
// measured against) at this cadence when no records flow.
const pingEvery = 500 * time.Millisecond

// scanBatch bounds how many record bytes one tail iteration reads and
// ships before re-checking the journal position.
const scanBatch = 1 << 20

// Hub is the leader side: it owns the SYNC command, streaming the op
// journal (and, when needed, a full snapshot bootstrap) to each
// connected replica. Install it on a server with
//
//	srv.SyncHandler = hub.HandleSync
//	srv.ReplInfo = hub.InfoLines
type Hub struct {
	db     *gdb.DB
	replid string

	mu       sync.Mutex
	replicas map[*replicaConn]struct{} // guarded by mu
}

// replicaConn tracks one connected replica for INFO replication.
type replicaConn struct {
	addr  string
	since time.Time

	mu   sync.Mutex
	sent position // guarded by mu: last position shipped
}

// syncRequest is a parsed SYNC handshake.
type syncRequest struct {
	replid string
	pos    position
}

// NewHub wraps a durable database as a replication leader, minting (or
// loading) its history identity.
func NewHub(db *gdb.DB) (*Hub, error) {
	if !db.Durable() {
		return nil, errors.New("repl: a leader needs a durable database (journal shipping has no source otherwise)")
	}
	replid, err := loadOrCreateReplID(db.DataDir())
	if err != nil {
		return nil, err
	}
	return &Hub{db: db, replid: replid, replicas: map[*replicaConn]struct{}{}}, nil
}

// HandleSync serves one replica's SYNC for the lifetime of its
// connection; it matches resp.Server.SyncHandler. Errors are written
// as RESP errors when the protocol still allows one, then the
// connection closes and the replica reconnects.
func (h *Hub) HandleSync(ctx context.Context, args []string, conn net.Conn, _ *bufio.Reader, _ *bufio.Writer) {
	// Frames flow through a dedicated writer so the send path is
	// tearable in chaos tests (fault.Writer wraps the socket).
	w := bufio.NewWriter(fault.Writer(FPSend, conn))
	req, err := parseSyncArgs(args)
	if err != nil {
		//lint:ignore errdrop best-effort error reply on a handshake we are rejecting
		_ = resp.Write(w, resp.Errorf("%v", err))
		_ = w.Flush()
		return
	}

	rc := &replicaConn{addr: conn.RemoteAddr().String(), since: time.Now()}
	h.mu.Lock()
	h.replicas[rc] = struct{}{}
	h.mu.Unlock()
	obs.ReplReplicasConnected.Add(1)
	defer func() {
		h.mu.Lock()
		delete(h.replicas, rc)
		h.mu.Unlock()
		obs.ReplReplicasConnected.Add(-1)
	}()

	// Unblock the stream loop's writes when the server shuts down.
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()

	// Stream errors are expected churn — the replica reconnects and
	// renegotiates, so there is nothing to unwind here.
	_ = h.stream(ctx, req, rc, w)
}

// parseSyncArgs decodes "SYNC <replid> <seq> <off>".
func parseSyncArgs(args []string) (syncRequest, error) {
	var req syncRequest
	if len(args) != 4 {
		return req, fmt.Errorf("usage: SYNC <replid> <seq> <offset>")
	}
	req.replid = args[1]
	seq, err := strconv.ParseUint(args[2], 10, 64)
	if err != nil {
		return req, fmt.Errorf("SYNC: bad sequence %q", args[2])
	}
	off, err := strconv.ParseInt(args[3], 10, 64)
	if err != nil || off < 0 {
		return req, fmt.Errorf("SYNC: bad offset %q", args[3])
	}
	req.pos = position{seq: seq, off: off}
	return req, nil
}

// stream negotiates CONTINUE vs FULLSYNC and then tails the journal to
// the replica until the connection or server dies.
func (h *Hub) stream(ctx context.Context, req syncRequest, rc *replicaConn, w *bufio.Writer) error {
	pos, release, err := h.openStream(req.replid, req.pos, w)
	if err != nil {
		return err
	}
	defer func() { release() }()
	rc.setSent(pos)

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Take the watch channel BEFORE reading the position and
		// scanning: a record landing after the scan still closes this
		// channel, so the idle wait below cannot sleep through it.
		watch := h.db.WatchJournal()
		curSeq, curOff := h.db.ReplPosition()

		if pos.seq == curSeq {
			// Ship only the committed prefix: bytes past curOff may
			// belong to an append that fails fsync and rolls back.
			budget := curOff - pos.off
			sent := 0
			if budget > 0 {
				n, newOff, err := h.shipRecords(pos, budget, w)
				if err != nil {
					return err
				}
				sent, pos.off = n, newOff
				rc.setSent(pos)
			}
			if sent == 0 && pos.off >= curOff {
				if err := h.ping(w, curSeq, curOff); err != nil {
					return err
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-watch:
				case <-time.After(pingEvery):
				}
			}
			continue
		}

		// The leader rotated past this segment: drain it to EOF, then
		// tell the replica to rotate in lockstep.
		for {
			n, newOff, err := h.shipRecords(pos, scanBatch, w)
			if err != nil {
				return err
			}
			pos.off = newOff
			rc.setSent(pos)
			if n == 0 {
				break
			}
		}
		next := position{seq: pos.seq + 1}
		// Pin the next segment before releasing the old one; a segment
		// already pruned (the leader rotated several times while this
		// stream lagged) surfaces as a scan error and renegotiates.
		nextRelease := h.db.PinSegment(next.seq)
		release()
		release = nextRelease
		if err := h.send(w, resp.Arr(resp.Bulk(frameRotate), resp.Int(int64(next.seq)))); err != nil {
			return err
		}
		pos = next
		rc.setSent(pos)
	}
}

// openStream decides CONTINUE vs FULLSYNC, sends the decision frame
// (plus the snapshot transfer when bootstrapping), and returns the
// stream position and the pin holding its files.
func (h *Hub) openStream(replid string, reqPos position, w *bufio.Writer) (position, func(), error) {
	if replid == h.replid {
		release := h.db.PinSegment(reqPos.seq)
		if h.resumable(reqPos) {
			err := h.send(w, resp.Arr(resp.Bulk(frameContinue),
				resp.Int(int64(reqPos.seq)), resp.Int(reqPos.off)))
			if err != nil {
				release()
				return position{}, nil, err
			}
			return reqPos, release, nil
		}
		release()
	}
	return h.fullsync(w)
}

// resumable reports whether an incremental catch-up from pos is safe:
// the segment's journal still exists (pinned first, so this cannot
// race pruning) and pos.off does not exceed its committed prefix.
func (h *Hub) resumable(pos position) bool {
	curSeq, curOff := h.db.ReplPosition()
	if pos.seq > curSeq {
		return false
	}
	st, err := os.Stat(h.db.JournalFile(pos.seq))
	if err != nil || pos.off > st.Size() {
		return false
	}
	if pos.seq == curSeq && pos.off > curOff {
		return false
	}
	return true
}

// fullsync cuts a fresh snapshot boundary (Save rotates the journal,
// so the streamed snapshot pairs with an empty journal — the replica
// needs no journal backfill) and ships the snapshot file verbatim.
func (h *Hub) fullsync(w *bufio.Writer) (position, func(), error) {
	if err := fault.Inject(FPFullsyncSave); err != nil {
		return position{}, nil, fmt.Errorf("repl: fullsync save: %w", err)
	}
	if err := h.db.Save(); err != nil {
		return position{}, nil, fmt.Errorf("repl: fullsync save: %w", err)
	}
	seq, _ := h.db.ReplPosition()
	release := h.db.PinSegment(seq)
	fail := func(err error) (position, func(), error) {
		release()
		return position{}, nil, err
	}

	if err := h.send(w, resp.Arr(resp.Bulk(frameFullsync),
		resp.Bulk(h.replid), resp.Int(int64(seq)))); err != nil {
		return fail(err)
	}
	f, err := os.Open(h.db.SnapshotFile(seq))
	if err != nil {
		return fail(fmt.Errorf("repl: fullsync read: %w", err))
	}
	// Read-only file; close failures cannot lose data.
	defer f.Close()
	var total int64
	buf := make([]byte, snapChunk)
	for {
		if err := fault.Inject(FPFullsyncRead); err != nil {
			return fail(fmt.Errorf("repl: fullsync read: %w", err))
		}
		n, rerr := f.Read(buf)
		if n > 0 {
			total += int64(n)
			if err := h.send(w, resp.Arr(resp.Bulk(frameSnap), resp.Bulk(string(buf[:n])))); err != nil {
				return fail(err)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fail(fmt.Errorf("repl: fullsync read: %w", rerr))
		}
	}
	if err := h.send(w, resp.Arr(resp.Bulk(frameSnapEnd), resp.Int(total))); err != nil {
		return fail(err)
	}
	obs.ReplBytesShipped.Add(total)
	return position{seq: seq}, release, nil
}

// shipRecords scans up to maxBytes of committed records at pos and
// sends them as REC frames, returning how many and the new offset.
func (h *Hub) shipRecords(pos position, maxBytes int64, w *bufio.Writer) (int, int64, error) {
	recs, newOff, err := gdb.ScanRecords(h.db.JournalFile(pos.seq), pos.off, maxBytes)
	if err != nil {
		return 0, pos.off, fmt.Errorf("repl: tailing journal %d: %w", pos.seq, err)
	}
	for _, raw := range recs {
		err := h.send(w, resp.Arr(resp.Bulk(frameRec),
			resp.Int(int64(pos.seq)), resp.Bulk(string(raw))))
		if err != nil {
			return 0, pos.off, err
		}
		obs.ReplRecordsShipped.Inc()
		obs.ReplBytesShipped.Add(int64(len(raw)))
	}
	return len(recs), newOff, nil
}

// ping reports the leader's committed position on an idle stream.
func (h *Hub) ping(w *bufio.Writer, seq uint64, off int64) error {
	return h.send(w, resp.Arr(resp.Bulk(framePing),
		resp.Int(int64(seq)), resp.Int(off), resp.Int(time.Now().UnixMicro())))
}

// send writes one frame and flushes it, behind the tearable send
// failpoint.
func (h *Hub) send(w *bufio.Writer, frame resp.Value) error {
	if err := fault.Inject(FPSend); err != nil {
		return fmt.Errorf("repl: send: %w", err)
	}
	if err := resp.Write(w, frame); err != nil {
		return fmt.Errorf("repl: send: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("repl: send: %w", err)
	}
	return nil
}

// setSent records the stream's shipped position for INFO.
func (rc *replicaConn) setSent(pos position) {
	rc.mu.Lock()
	rc.sent = pos
	rc.mu.Unlock()
}

// InfoLines renders the leader's INFO replication section.
func (h *Hub) InfoLines() []string {
	seq, off := h.db.ReplPosition()
	h.mu.Lock()
	conns := make([]*replicaConn, 0, len(h.replicas))
	for rc := range h.replicas {
		conns = append(conns, rc)
	}
	h.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].addr < conns[j].addr })
	lines := []string{
		"role:leader",
		"replid:" + h.replid,
		fmt.Sprintf("journal_seq:%d", seq),
		fmt.Sprintf("journal_offset:%d", off),
		fmt.Sprintf("connected_replicas:%d", len(conns)),
	}
	for i, rc := range conns {
		rc.mu.Lock()
		sent := rc.sent
		rc.mu.Unlock()
		lines = append(lines, fmt.Sprintf("replica%d:addr=%s,seq=%d,offset=%d,age_seconds=%d",
			i, rc.addr, sent.seq, sent.off, int64(time.Since(rc.since).Seconds())))
	}
	return lines
}
