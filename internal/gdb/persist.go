package gdb

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
	"mscfpq/internal/store"
)

// Graph stores serialize as the textual graph format (internal/graph)
// followed by property lines:
//
//	prop <vertex> <key> s <string-value (quoted)>
//	prop <vertex> <key> i <int-value>
//
// The server exposes this as GRAPH.DUMP / GRAPH.RESTORE.

// WriteStore serializes a graph store. It pins one snapshot, so the
// dump is a consistent version even while writes proceed.
func WriteStore(w io.Writer, s *GraphStore) error {
	snap := s.Snapshot()
	g := snap.Graph()
	bw := bufio.NewWriter(w)
	if err := graph.Write(bw, g); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		props := snap.Props(v)
		if len(props) == 0 {
			continue
		}
		// Deterministic order for reproducible dumps.
		keys := make([]string, 0, len(props))
		for k := range props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			val := props[k]
			if val.IsInt {
				fmt.Fprintf(bw, "prop %d %s i %d\n", v, k, val.Int)
			} else {
				fmt.Fprintf(bw, "prop %d %s s %s\n", v, k, strconv.Quote(val.Str))
			}
		}
	}
	return bw.Flush()
}

// ReadStore deserializes a graph store written by WriteStore. It reads
// the dump once: graph lines stream on to graph.Read, and prop lines
// are parsed on the way. Every error names the dump's line.
func ReadStore(r io.Reader) (*GraphStore, error) {
	d := &dumpLines{sc: bufio.NewScanner(r)}
	d.sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	g, err := graph.Read(d)
	if d.err != nil {
		return nil, d.err
	}
	if err != nil {
		return nil, err
	}
	s := NewGraphStore(g)
	if len(d.props) == 0 {
		return s, nil
	}
	// One versioned update for the whole property block: the restored
	// store lands at version 1, not one version per line.
	if _, err := s.st.Update(func(tx *store.Tx) error {
		for _, p := range d.props {
			if p.v >= g.NumVertices() {
				return fmt.Errorf("gdb: line %d: bad prop vertex %d", p.line, p.v)
			}
			tx.SetProp(p.v, p.key, p.val)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// dumpLines is the reader graph.Read gets from ReadStore: it hands on
// a dump's graph lines and parses its prop lines, leaving an empty line
// in their place so graph.Read numbers lines as the dump does.
type dumpLines struct {
	sc        *bufio.Scanner
	line      int
	buf, rest []byte // the current line and its part not yet handed on
	props     []prop
	err       error // the first bad line, which ends the read
}

// prop is one parsed prop line of a dump.
type prop struct {
	line, v int
	key     string
	val     cypher.Value
}

func (d *dumpLines) Read(p []byte) (int, error) {
	for len(d.rest) == 0 {
		if d.err != nil {
			return 0, d.err
		}
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				d.err = fmt.Errorf("gdb: read store: line %d: %w", d.line+1, err)
				continue
			}
			return 0, io.EOF
		}
		d.line++
		line := d.sc.Bytes()
		if t := bytes.TrimSpace(line); bytes.HasPrefix(t, []byte("prop ")) {
			line, d.err = nil, d.parseProp(string(t))
		}
		d.buf = append(append(d.buf[:0], line...), '\n')
		d.rest = d.buf
	}
	n := copy(p, d.rest)
	d.rest = d.rest[n:]
	return n, nil
}

// parseProp parses one prop line ("prop <vertex> <key> <kind> <value>").
func (d *dumpLines) parseProp(line string) error {
	fields := strings.SplitN(line, " ", 5)
	if len(fields) != 5 {
		return fmt.Errorf("gdb: line %d: bad prop line %q", d.line, line)
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil || v < 0 {
		return fmt.Errorf("gdb: line %d: bad prop vertex %q", d.line, fields[1])
	}
	var val cypher.Value
	switch fields[3] {
	case "i":
		val.Int, err = strconv.ParseInt(fields[4], 10, 64)
		val.IsInt = true
	case "s":
		val.Str, err = strconv.Unquote(fields[4])
	default:
		return fmt.Errorf("gdb: line %d: unknown prop kind %q", d.line, fields[3])
	}
	if err != nil {
		return fmt.Errorf("gdb: line %d: bad %s prop %q", d.line, fields[3], fields[4])
	}
	// The key is cloned so the store does not keep the whole line.
	d.props = append(d.props, prop{line: d.line, v: v, key: strings.Clone(fields[2]), val: val})
	return nil
}

// Dump serializes the named graph to a string.
func (db *DB) Dump(name string) (string, error) {
	s, err := db.Get(name)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := WriteStore(&b, s); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Restore loads a dumped graph under the given name, replacing any
// existing graph. On a durable database the restore is journaled (and
// fsynced) before it is applied.
func (db *DB) Restore(name, dump string) error {
	s, err := ReadStore(strings.NewReader(dump))
	if err != nil {
		return err
	}
	return db.commit(journalOp{op: opRestore, name: name, arg: dump}, func() { db.putStore(name, s) })
}
