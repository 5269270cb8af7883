package plan

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// OutCol describes one output column of a projection or aggregation.
type OutCol struct {
	Name  string
	Slot  int  // record slot; -1 for count(*)
	Count bool // column is a count aggregate
}

// Aggregate implements RETURN with count aggregates: non-count columns
// are grouping keys, count columns report the group sizes. Groups are
// emitted in first-seen order. With no grouping column there is one
// group, all the records, or none when there are no records.
type Aggregate struct {
	child Operation
	cols  []OutCol

	rows    []int64 // one row of len(cols) cells per group, back to back
	drained bool
	pos     int // offset in rows of the next group to emit
}

// NewAggregate builds the aggregation operation.
func NewAggregate(child Operation, cols []OutCol) *Aggregate {
	return &Aggregate{child: child, cols: cols}
}

func (a *Aggregate) Open() error {
	a.rows, a.drained, a.pos = nil, false, 0
	return a.child.Open()
}

func (a *Aggregate) Next() (Record, error) {
	if !a.drained {
		if err := a.drain(); err != nil {
			return nil, err
		}
		a.drained = true
	}
	if a.pos >= len(a.rows) {
		return nil, nil
	}
	rec := Record(a.rows[a.pos : a.pos+len(a.cols)])
	a.pos += len(a.cols)
	return rec, nil
}

// drain counts the child's records: into a local when no column groups
// them, else per group, keyed by the eight bytes of each grouping cell.
func (a *Aggregate) drain() error {
	grouped := slices.ContainsFunc(a.cols, func(c OutCol) bool { return !c.Count })
	groups := map[string]int{} // key -> offset of the group's row in a.rows
	var key []byte
	n := 0
	for ; ; n++ {
		rec, err := a.child.Next()
		if err != nil {
			return err
		}
		if rec == nil {
			break
		}
		if !grouped {
			continue
		}
		key = key[:0]
		for _, c := range a.cols {
			if !c.Count {
				key = binary.LittleEndian.AppendUint64(key, uint64(rec[c.Slot]))
			}
		}
		off, ok := groups[string(key)]
		if !ok {
			off = len(a.rows)
			groups[string(key)] = off
			for _, c := range a.cols {
				if c.Count {
					a.rows = append(a.rows, 0)
				} else {
					a.rows = append(a.rows, rec[c.Slot])
				}
			}
		}
		for i, c := range a.cols {
			if c.Count {
				a.rows[off+i]++
			}
		}
	}
	if !grouped {
		a.rows = countRow(len(a.cols), n)
	}
	return nil
}

// countRow is the answer to a RETURN of width counts alone over n
// records: one row of n, or no row when n is 0.
func countRow(width, n int) []int64 {
	if n == 0 {
		return nil
	}
	row := make([]int64, width)
	for i := range row {
		row[i] = int64(n)
	}
	return row
}

func (a *Aggregate) Explain() string {
	return "Aggregate(" + strings.Join(colNames(a.cols), ", ") + ")"
}

// colNames returns the names of the output columns.
func colNames(cols []OutCol) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

func (a *Aggregate) Child() Operation { return a.child }

// Sort orders the (already projected) records by output columns.
type Sort struct {
	child Operation
	keys  []sortKey

	out    [][]int64
	sorted bool
	pos    int
}

type sortKey struct {
	col  int
	desc bool
}

// NewSort builds the sort operation over output column indices.
func NewSort(child Operation, keys []sortKey) *Sort {
	return &Sort{child: child, keys: keys}
}

func (s *Sort) Open() error {
	s.out, s.sorted, s.pos = nil, false, 0
	return s.child.Open()
}

func (s *Sort) Next() (Record, error) {
	if !s.sorted {
		n, cells, err := drainRows(s.child, nil)
		if err != nil {
			return nil, err
		}
		s.out = CutRows(cells, n)
		sort.SliceStable(s.out, func(i, j int) bool {
			for _, k := range s.keys {
				a, b := s.out[i][k.col], s.out[j][k.col]
				if a == b {
					continue
				}
				if k.desc {
					return a > b
				}
				return a < b
			}
			return false
		})
		s.sorted = true
	}
	if s.pos >= len(s.out) {
		return nil, nil
	}
	s.pos++
	return s.out[s.pos-1], nil
}

func (s *Sort) Explain() string {
	parts := make([]string, len(s.keys))
	for i, k := range s.keys {
		dir := "asc"
		if k.desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("col%d %s", k.col, dir)
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

func (s *Sort) Child() Operation { return s.child }

// Paginate applies SKIP and LIMIT after projection (and sorting).
type Paginate struct {
	child   Operation
	skip    int
	limit   int // 0 = unlimited
	skipped int
	emitted int
}

// NewPaginate builds the pagination operation.
func NewPaginate(child Operation, skip, limit int) *Paginate {
	return &Paginate{child: child, skip: skip, limit: limit}
}

func (p *Paginate) Open() error {
	p.skipped, p.emitted = 0, 0
	return p.child.Open()
}

func (p *Paginate) Next() (Record, error) {
	for {
		if p.limit > 0 && p.emitted >= p.limit {
			return nil, nil
		}
		rec, err := p.child.Next()
		if err != nil || rec == nil {
			return nil, err
		}
		if p.skipped < p.skip {
			p.skipped++
			continue
		}
		p.emitted++
		return rec, nil
	}
}

func (p *Paginate) Explain() string {
	return fmt.Sprintf("Paginate(skip=%d, limit=%d)", p.skip, p.limit)
}

func (p *Paginate) Child() Operation { return p.child }
