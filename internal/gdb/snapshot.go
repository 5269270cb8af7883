package gdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mscfpq/internal/fault"
	"mscfpq/internal/obs"
)

// Snapshot file format (see DESIGN.md §9). A snapshot is the full
// database image at one journal cut, written atomically (temp file +
// fsync + rename + directory fsync) so a file that exists under its
// final name is either complete or bit-rotted — never torn by a crash:
//
//	header:   magic "MSCFPQSNAP" | uint16 version | uint32 graph count
//	section:  uint32 nameLen | name | uint64 payloadLen | payload |
//	          uint32 CRC32(name ++ payload)
//
// Sections are sorted by graph name; payloads are the textual
// WriteStore encoding. All integers are big-endian. Readers validate
// the magic, the version, every section CRC, and that the file ends
// exactly after the last section.

const (
	snapshotMagic   = "MSCFPQSNAP"
	snapshotVersion = 1

	// maxSnapshotSection bounds a single section payload (1 GiB); a
	// reader also refuses a length beyond the bytes left in the file, so
	// a corrupted length field cannot force a huge allocation.
	maxSnapshotSection = 1 << 30
)

// Failpoints in the snapshot write path, in write order. Tests arm
// them to fail, tear, or delay each step; the chaos suite enumerates
// them through fault.Names.
const (
	FPSnapshotCreate  = "gdb.snapshot.create"
	FPSnapshotWrite   = "gdb.snapshot.write"
	FPSnapshotSync    = "gdb.snapshot.sync"
	FPSnapshotRename  = "gdb.snapshot.rename"
	FPSnapshotDirSync = "gdb.snapshot.dirsync"
)

var _ = fault.Declare(FPSnapshotCreate, FPSnapshotWrite, FPSnapshotSync,
	FPSnapshotRename, FPSnapshotDirSync)

// snapshotPath names the snapshot file of a journal sequence.
func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// journalPath names the journal file of a sequence.
func journalPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// parseSeq extracts the sequence from a snap-/wal- file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	hexs := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hexs) != 16 {
		return 0, false
	}
	if _, err := fmt.Sscanf(hexs, "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// writeSnapshotTo streams the snapshot encoding of stores onto w.
func writeSnapshotTo(w io.Writer, stores map[string]*GraphStore) error {
	bw := bufio.NewWriter(w)
	header := make([]byte, 0, len(snapshotMagic)+6)
	header = append(header, snapshotMagic...)
	header = binary.BigEndian.AppendUint16(header, snapshotVersion)
	header = binary.BigEndian.AppendUint32(header, uint32(len(stores)))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	names := make([]string, 0, len(stores))
	for n := range stores {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		var payload strings.Builder
		if err := WriteStore(&payload, stores[name]); err != nil {
			return fmt.Errorf("gdb: snapshot %q: %w", name, err)
		}
		sec := make([]byte, 0, 4+len(name)+8)
		sec = binary.BigEndian.AppendUint32(sec, uint32(len(name)))
		sec = append(sec, name...)
		sec = binary.BigEndian.AppendUint64(sec, uint64(payload.Len()))
		if _, err := bw.Write(sec); err != nil {
			return err
		}
		if _, err := bw.WriteString(payload.String()); err != nil {
			return err
		}
		crc := crc32.ChecksumIEEE([]byte(name))
		crc = crc32.Update(crc, crc32.IEEETable, []byte(payload.String()))
		if err := binary.Write(bw, binary.BigEndian, crc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSnapshotFile writes the snapshot for seq atomically into dir:
// the encoding goes to a temp file that is fsynced, closed, renamed to
// its final name, and made durable with a directory fsync. On any
// error the temp file is removed and the previous snapshot (if any) is
// untouched.
func writeSnapshotFile(dir string, seq uint64, stores map[string]*GraphStore) (err error) {
	if err := fault.Inject(FPSnapshotCreate); err != nil {
		return fmt.Errorf("gdb: snapshot create: %w", err)
	}
	f, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("gdb: snapshot create: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			//lint:ignore errdrop best-effort cleanup of a temp file after the write already failed
			_ = f.Close()
			// Ditto; the temp file is ignored by recovery either way.
			_ = os.Remove(tmp)
		}
	}()
	if err := fault.Inject(FPSnapshotWrite); err != nil {
		return fmt.Errorf("gdb: snapshot write: %w", err)
	}
	cw := &obs.CountingWriter{W: fault.Writer(FPSnapshotWrite, f)}
	if err := writeSnapshotTo(cw, stores); err != nil {
		return fmt.Errorf("gdb: snapshot write: %w", err)
	}
	if err := fault.Inject(FPSnapshotSync); err != nil {
		return fmt.Errorf("gdb: snapshot sync: %w", err)
	}
	syncStart := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("gdb: snapshot sync: %w", err)
	}
	obs.DurFsyncLatencyUS.Observe(time.Since(syncStart).Microseconds())
	if err := f.Close(); err != nil {
		return fmt.Errorf("gdb: snapshot close: %w", err)
	}
	if err := fault.Inject(FPSnapshotRename); err != nil {
		return fmt.Errorf("gdb: snapshot rename: %w", err)
	}
	if err := os.Rename(tmp, snapshotPath(dir, seq)); err != nil {
		return fmt.Errorf("gdb: snapshot rename: %w", err)
	}
	if err := fault.Inject(FPSnapshotDirSync); err != nil {
		return fmt.Errorf("gdb: snapshot dirsync: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("gdb: snapshot dirsync: %w", err)
	}
	obs.DurSnapshots.Inc()
	obs.DurSnapshotBytes.Add(cw.N)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		//lint:ignore errdrop the sync error is the one worth reporting; close cannot add to it
		_ = d.Close()
		return err
	}
	return d.Close()
}

// readSnapshotFile loads and validates a snapshot file, returning the
// decoded stores. Any structural damage — bad magic, unknown version,
// CRC mismatch, short file, a length past the end, trailing garbage —
// is an error; the caller falls back to an older snapshot. Nothing is
// sized from the file before it is checked against the bytes left.
func readSnapshotFile(path string) (map[string]*GraphStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdrop read-only file; close failures cannot lose data
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// r.N counts the bytes left in the file.
	r := &io.LimitedReader{R: bufio.NewReader(f), N: st.Size()}

	header := make([]byte, len(snapshotMagic)+6)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("gdb: snapshot %s: short header: %w", path, err)
	}
	if string(header[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("gdb: snapshot %s: bad magic", path)
	}
	if v := binary.BigEndian.Uint16(header[len(snapshotMagic):]); v != snapshotVersion {
		return nil, fmt.Errorf("gdb: snapshot %s: unsupported version %d", path, v)
	}
	count := binary.BigEndian.Uint32(header[len(snapshotMagic)+2:])

	stores := map[string]*GraphStore{}
	for i := uint32(0); i < count; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.BigEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("gdb: snapshot %s: section %d: %w", path, i, err)
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("gdb: snapshot %s: section %d: absurd name length %d", path, i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("gdb: snapshot %s: section %d: %w", path, i, err)
		}
		var payloadLen uint64
		if err := binary.Read(r, binary.BigEndian, &payloadLen); err != nil {
			return nil, fmt.Errorf("gdb: snapshot %s: section %d: %w", path, i, err)
		}
		if payloadLen > maxSnapshotSection || payloadLen > uint64(r.N) {
			return nil, fmt.Errorf("gdb: snapshot %s: section %d: absurd payload length %d (%d bytes left)", path, i, payloadLen, r.N)
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("gdb: snapshot %s: section %d: %w", path, i, err)
		}
		var crc uint32
		if err := binary.Read(r, binary.BigEndian, &crc); err != nil {
			return nil, fmt.Errorf("gdb: snapshot %s: section %d: %w", path, i, err)
		}
		want := crc32.Update(crc32.ChecksumIEEE(name), crc32.IEEETable, payload)
		if crc != want {
			return nil, fmt.Errorf("gdb: snapshot %s: section %q: CRC mismatch", path, name)
		}
		s, err := ReadStore(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("gdb: snapshot %s: section %q: %w", path, name, err)
		}
		stores[string(name)] = s
	}
	if r.N != 0 {
		return nil, fmt.Errorf("gdb: snapshot %s: trailing garbage after %d sections", path, count)
	}
	return stores, nil
}
