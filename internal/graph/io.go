package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mscfpq/internal/grammar"
)

// The textual graph format is line-oriented, compatible with the triple
// files of the CFPQ_Data dataset:
//
//	# comment
//	0 subClassOf 1        edge 0 -[subClassOf]-> 1
//	vertex 3 x            vertex 3 carries label x
//	order 100             declare at least 100 vertices (optional)

// Write serializes the graph in the textual format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "order %d\n", g.NumVertices()); err != nil {
		return err
	}
	var err error
	g.Edges(func(src int, label string, dst int) bool {
		_, err = fmt.Fprintf(bw, "%d %s %d\n", src, label, dst)
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, l := range g.VertexLabels() {
		for _, v := range g.VertexSet(l).Ints() {
			if _, err := fmt.Fprintf(bw, "vertex %d %s\n", v, l); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MaxRowSlots bounds the graphs Read builds: their vertices times their
// edge labels (at least one), the row slots of the label matrices. A
// slot costs a row header whatever the edges, so one line naming vertex
// 500 000 000 would otherwise allocate gigabytes. 1 << 25 admits every
// internal/dataset graph; the largest, taxonomy@1, holds about 17 M.
const MaxRowSlots = 1 << 25

// Read parses a graph from the textual format. It refuses, with the
// line's number, an edge with an inverse label, and an order, vertex id
// or new edge label that would take the graph past MaxRowSlots.
func Read(r io.Reader) (*Graph, error) {
	g := New(0)
	// fits reports whether vertex v can exist, and label with it when
	// it is not "", within MaxRowSlots.
	fits := func(v int, label string) bool {
		labels := len(g.edges)
		if _, ok := g.edges[label]; label != "" && !ok {
			labels++
		}
		return max(v, g.n-1) < MaxRowSlots/max(labels, 1)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "order" && len(fields) == 2:
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad order %q", lineNo, fields[1])
			}
			if !fits(n-1, "") {
				return nil, fmt.Errorf("graph: line %d: order %d is past %d row slots (vertices × edge labels)", lineNo, n, MaxRowSlots)
			}
			if n > 0 && n > g.NumVertices() {
				g.grow(n - 1)
			}
		case fields[0] == "vertex" && len(fields) == 3:
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex id %q", lineNo, fields[1])
			}
			if !fits(v, "") {
				return nil, fmt.Errorf("graph: line %d: vertex %d is past %d row slots (vertices × edge labels)", lineNo, v, MaxRowSlots)
			}
			g.AddVertexLabel(v, fields[2])
		case len(fields) == 3:
			src, err1 := strconv.Atoi(fields[0])
			dst, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || src < 0 || dst < 0 || grammar.IsInverseLabel(fields[1]) {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", lineNo, line)
			}
			if !fits(max(src, dst), fields[1]) {
				return nil, fmt.Errorf("graph: line %d: edge %q is past %d row slots (vertices × edge labels)", lineNo, line, MaxRowSlots)
			}
			g.AddEdge(src, fields[1], dst)
		default:
			return nil, fmt.Errorf("graph: line %d: cannot parse %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return g, nil
}

// LoadFile reads a graph from a file.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	g, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, nil
}

// SaveFile writes a graph to a file.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return fmt.Errorf("graph: %s: %w", path, err)
	}
	return f.Close()
}
