package gdb

import (
	"bufio"
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

// ReadStore deserializes a graph store written by WriteStore.
func ReadStore(r io.Reader) (*GraphStore, error) {
	// Split property lines from the graph body: the graph reader rejects
	// them, so filter in one pass.
	var graphLines, propLines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "prop ") {
			propLines = append(propLines, strings.TrimSpace(line))
		} else {
			graphLines = append(graphLines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gdb: read store: %w", err)
	}
	g, err := graph.Read(strings.NewReader(strings.Join(graphLines, "\n")))
	if err != nil {
		return nil, err
	}
	s := NewGraphStore(g)
	if len(propLines) > 0 {
		// One versioned update for the whole property block: the
		// restored store lands at version 1, not one version per line.
		if _, err := s.st.Update(func(tx *store.Tx) error {
			for _, line := range propLines {
				fields := strings.SplitN(line, " ", 5)
				if len(fields) != 5 {
					return fmt.Errorf("gdb: bad prop line %q", line)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 0 || v >= g.NumVertices() {
					return fmt.Errorf("gdb: bad prop vertex %q", fields[1])
				}
				key := fields[2]
				switch fields[3] {
				case "i":
					n, err := strconv.ParseInt(fields[4], 10, 64)
					if err != nil {
						return fmt.Errorf("gdb: bad int prop %q", fields[4])
					}
					tx.SetProp(v, key, cypher.Value{Int: n, IsInt: true})
				case "s":
					str, err := strconv.Unquote(fields[4])
					if err != nil {
						return fmt.Errorf("gdb: bad string prop %q", fields[4])
					}
					tx.SetProp(v, key, cypher.Value{Str: str})
				default:
					return fmt.Errorf("gdb: unknown prop kind %q", fields[3])
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
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
