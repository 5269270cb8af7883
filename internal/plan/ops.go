package plan

import (
	"fmt"
	"slices"
	"strings"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/matrix"
)

// Record binds pattern variables (by slot) to vertex ids; -1 = unbound.
type Record []int64

// Operation is one node of the execution plan tree. Operations pull
// records from their child (paper Figure 13), process them and produce
// records for their parent.
type Operation interface {
	// Open prepares the operation (and its subtree) for execution.
	Open() error
	// Next returns the next record, or nil when exhausted. The record
	// is read-only and valid only until the next call to Next (the
	// operation reuses its buffer, so a row costs no allocation); a
	// caller that keeps records copies them (Traverse, drainRows).
	Next() (Record, error)
	// Explain renders the operation for plan display.
	Explain() string
	// Child returns the input operation, or nil.
	Child() Operation
}

// ---------------------------------------------------------------------
// NodeScan: AllNodeScan / LabelScan (paper Figure 13) / NodeByIdSeek.

// NodeScan binds a variable to every vertex (optionally restricted to a
// label), or, as an id seek, to the vertices an id predicate lists. With
// a child, it extends or filters the child's records; at the leaf it
// generates records from the graph.
type NodeScan struct {
	env    *Env
	slots  int
	slot   int
	label  string // "" = all vertices
	seek   bool   // verts holds the ids of a consumed id predicate
	exact  bool   // a seek that dropped none of its ids
	child  Operation
	cur    Record // the child's record being extended
	out    Record // cur with slot bound, rewritten per vertex
	verts  []int
	pos    int
	opened bool
}

// NewNodeScan builds a scan binding slot; slots is the record width.
func NewNodeScan(env *Env, child Operation, slots, slot int, label string) *NodeScan {
	return &NodeScan{env: env, child: child, slots: slots, slot: slot, label: label}
}

// newNodeSeek builds a scan that binds slot to the listed ids only: the
// plan of id(v) = k or id(v) IN [...] on an unbound variable, which then
// costs the ids, not the graph's vertices. The ids are sorted and
// deduplicated, and those out of range or, for a labeled node, without
// the label are dropped, so the seek yields what the scan plus a filter
// would.
func newNodeSeek(env *Env, child Operation, slots, slot int, label string, ids []int64) *NodeScan {
	s := NewNodeScan(env, child, slots, slot, label)
	s.seek, s.verts = true, []int{}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, id := range ids {
		if id >= 0 && id < int64(env.G.NumVertices()) && (label == "" || env.G.HasVertexLabel(int(id), label)) {
			s.verts = append(s.verts, int(id))
		}
	}
	s.exact = len(s.verts) == len(ids)
	return s
}

func (s *NodeScan) Open() error {
	if s.child != nil {
		if err := s.child.Open(); err != nil {
			return err
		}
	}
	switch {
	case s.seek:
	case s.label == "":
		n := s.env.G.NumVertices()
		s.verts = make([]int, n)
		for i := range s.verts {
			s.verts[i] = i
		}
	default:
		s.verts = s.env.G.VertexSet(s.label).Ints()
	}
	s.cur = nil
	s.out = make(Record, s.slots)
	s.pos = 0
	s.opened = true
	return nil
}

func (s *NodeScan) Next() (Record, error) {
	if !s.opened {
		return nil, fmt.Errorf("plan: NodeScan not opened")
	}
	for {
		if s.cur == nil {
			if s.child == nil {
				if s.pos == -1 {
					return nil, nil
				}
				// Leaf: one synthetic empty record drives the vertex loop.
				s.cur = make(Record, s.slots)
				for i := range s.cur {
					s.cur[i] = -1
				}
				s.pos = 0
				continue
			}
			rec, err := s.child.Next()
			if err != nil || rec == nil {
				return nil, err
			}
			s.cur = rec
			s.pos = 0
		}
		if bound := s.cur[s.slot]; bound >= 0 {
			// Variable already bound: act as a label filter.
			rec := s.cur
			s.cur = nil
			if s.child == nil {
				s.pos = -1
			}
			if s.label == "" || s.env.G.HasVertexLabel(int(bound), s.label) {
				return rec, nil
			}
			continue
		}
		if s.pos >= len(s.verts) {
			s.cur = nil
			if s.child == nil {
				s.pos = -1
			}
			continue
		}
		copy(s.out, s.cur)
		s.out[s.slot] = int64(s.verts[s.pos])
		s.pos++
		return s.out, nil
	}
}

func (s *NodeScan) Explain() string {
	if s.seek {
		if s.label != "" {
			return fmt.Sprintf("NodeByIdSeek(slot=%d, ids=%d, label=%s)", s.slot, len(s.verts), s.label)
		}
		return fmt.Sprintf("NodeByIdSeek(slot=%d, ids=%d)", s.slot, len(s.verts))
	}
	if s.label == "" {
		return fmt.Sprintf("AllNodeScan(slot=%d)", s.slot)
	}
	return fmt.Sprintf("LabelScan(slot=%d, label=%s)", s.slot, s.label)
}

func (s *NodeScan) Child() Operation { return s.child }

// ---------------------------------------------------------------------
// Traverse: CondTraverse / CFPQTraverse (paper Figure 12).

// traverseBatchSize bounds the record buffer a traverse accumulates
// before one evaluation (the paper's record buffer).
const traverseBatchSize = 1024

// Traverse consumes records, buffers them, reads the rows of their bound
// source vertices from the path pattern context's index — the rows of
// the compiled connection's start nonterminal — and emits one record per
// resulting pair.
type Traverse struct {
	name     string // CondTraverse (a relationship) or CFPQTraverse (a path pattern)
	env      *Env
	child    Operation
	fromSlot int
	toSlot   int
	path     *pathQuery      // the compiled connection
	ext      *cfpq.Extension // path's grammar over the index, for one execution

	buf    []int64         // the batch: copies of the child's records, width cells each
	from   []int           // the batch's sources, one per record
	width  int             // cells per record
	out    Record          // the buffered record being expanded, with toSlot bound
	rows   *matrix.RowList // evaluation result for the current batch
	row    []uint32        // the row of the record being expanded
	bufIdx int             // record being expanded
	rowPos int             // position within that row
	done   bool
}

func (t *Traverse) Open() error {
	// A connection that matches no path emits nothing.
	t.buf, t.width, t.rows, t.done = nil, 0, nil, t.path.start < 0
	t.bufIdx, t.rowPos = 0, 0
	// The connection's own nonterminals start empty once per execution
	// and keep what they derive across its batches.
	ext, err := t.env.Ctx.idx.Extend(t.path.w)
	if err != nil {
		return err
	}
	t.ext = ext
	return t.child.Open()
}

func (t *Traverse) Next() (Record, error) {
	for {
		// Emit from the current batch.
		for t.rows != nil && t.bufIdx*t.width < len(t.buf) {
			rec := Record(t.buf[t.bufIdx*t.width : (t.bufIdx+1)*t.width])
			if t.rowPos == 0 {
				t.row = t.rows.Row(int(rec[t.fromSlot]))
			}
			if t.rowPos < len(t.row) {
				dst := int64(t.row[t.rowPos])
				t.rowPos++
				if bound := rec[t.toSlot]; bound >= 0 {
					if bound != dst {
						continue
					}
					return rec, nil
				}
				copy(t.out, rec)
				t.out[t.toSlot] = dst
				return t.out, nil
			}
			t.bufIdx++
			t.rowPos = 0
		}
		if t.done {
			return nil, nil
		}
		if err := t.fillBatch(); err != nil {
			return nil, err
		}
		if len(t.buf) == 0 && t.done {
			return nil, nil
		}
	}
}

func (t *Traverse) fillBatch() error {
	t.bufIdx, t.rowPos = 0, 0
	t.rows = nil
	if err := t.pull(); err != nil || len(t.buf) == 0 {
		return err
	}
	// The buffered source vertices are the sources of one multiple-source
	// query (Section 4.3.2).
	var err error
	srcs := matrix.NewVectorFromIndices(t.env.G.NumVertices(), t.from)
	t.rows, err = t.ext.Rows(t.path.start, srcs, exec.WithRun(t.env.Run))
	return err
}

// pull copies up to a batch of the child's records into buf and their
// sources into from, and sets done once the child is dry.
func (t *Traverse) pull() error {
	t.buf, t.from = t.buf[:0], t.from[:0]
	for len(t.from) < traverseBatchSize {
		rec, err := t.child.Next()
		if err != nil {
			return err
		}
		if rec == nil {
			t.done = true
			return nil
		}
		src := rec[t.fromSlot]
		if src < 0 {
			return fmt.Errorf("plan: %s consumed a record with unbound source slot %d", t.name, t.fromSlot)
		}
		t.from = append(t.from, int(src))
		if t.width == 0 {
			t.width = len(rec)
			t.out = make(Record, t.width)
		}
		t.buf = append(t.buf, rec...)
	}
	return nil
}

func (t *Traverse) Explain() string {
	return fmt.Sprintf("%s(from=%d, to=%d, %s)", t.name, t.fromSlot, t.toSlot, t.path)
}

func (t *Traverse) Child() Operation { return t.child }

// CountRows answers a RETURN of counts alone over a traverse whose
// destination is free and whose records nothing filters, so that every
// count is the number of records the traverse would emit: it pulls the
// traverse's input in batches and sums, per batch, the lengths of the
// rows of its records' sources (cfpq.Extension.Count), so it copies no
// row and emits no record per pair. Like Aggregate, it yields one row
// of that number, or none when it is 0.
type CountRows struct {
	*Traverse
	cols []OutCol
}

func (c *CountRows) Next() (Record, error) {
	n := 0
	for !c.done {
		if err := c.pull(); err != nil {
			return nil, err
		}
		if len(c.from) > 0 {
			k, err := c.ext.Count(c.path.start, c.from, exec.WithRun(c.env.Run))
			if err != nil {
				return nil, err
			}
			n += k
		}
	}
	return countRow(len(c.cols), n), nil
}

func (c *CountRows) Explain() string {
	return "CountRows(" + strings.Join(colNames(c.cols), ", ") + ") over " + c.Traverse.Explain()
}

// ---------------------------------------------------------------------
// Filter.

// Filter drops records failing a WHERE predicate.
type Filter struct {
	env   *Env
	child Operation
	pred  cypher.Expr
	slots map[string]int
}

// NewFilter builds a filter for one predicate.
func NewFilter(env *Env, child Operation, pred cypher.Expr, slots map[string]int) *Filter {
	return &Filter{env: env, child: child, pred: pred, slots: slots}
}

func (f *Filter) Open() error { return f.child.Open() }

func (f *Filter) Next() (Record, error) {
	for {
		rec, err := f.child.Next()
		if err != nil || rec == nil {
			return nil, err
		}
		ok, err := f.evalPred(f.pred, rec)
		if err != nil {
			return nil, err
		}
		if ok {
			return rec, nil
		}
	}
}

func (f *Filter) evalPred(e cypher.Expr, rec Record) (bool, error) {
	switch v := e.(type) {
	case cypher.AndExpr:
		l, err := f.evalPred(v.Left, rec)
		if err != nil || !l {
			return false, err
		}
		return f.evalPred(v.Right, rec)
	case cypher.IDCompare:
		id, err := f.bound(v.Var, rec)
		if err != nil {
			return false, err
		}
		return id == v.ID, nil
	case cypher.IDIn:
		id, err := f.bound(v.Var, rec)
		if err != nil {
			return false, err
		}
		for _, want := range v.IDs {
			if id == want {
				return true, nil
			}
		}
		return false, nil
	case cypher.HasLabel:
		id, err := f.bound(v.Var, rec)
		if err != nil {
			return false, err
		}
		return f.env.G.HasVertexLabel(int(id), v.Label), nil
	case cypher.PropCompare:
		id, err := f.bound(v.Var, rec)
		if err != nil {
			return false, err
		}
		if f.env.Props == nil {
			return false, fmt.Errorf("plan: property predicates need a property store")
		}
		return f.env.Props.PropEquals(int(id), v.Key, v.Val), nil
	default:
		return false, fmt.Errorf("plan: unsupported predicate %T", e)
	}
}

func (f *Filter) bound(v string, rec Record) (int64, error) {
	slot, ok := f.slots[v]
	if !ok {
		return 0, fmt.Errorf("plan: unknown variable %q in WHERE", v)
	}
	id := rec[slot]
	if id < 0 {
		return 0, fmt.Errorf("plan: variable %q unbound in WHERE", v)
	}
	return id, nil
}

func (f *Filter) Explain() string  { return "Filter(" + f.pred.String() + ")" }
func (f *Filter) Child() Operation { return f.child }

// ---------------------------------------------------------------------
// Project.

// Project renders output rows from records.
type Project struct {
	child   Operation
	columns []string
	slots   []int
	out     Record
}

// NewProject builds the projection.
func NewProject(child Operation, columns []string, slots []int) *Project {
	return &Project{child: child, columns: columns, slots: slots, out: make(Record, len(slots))}
}

func (p *Project) Open() error { return p.child.Open() }

func (p *Project) Next() (Record, error) {
	rec, err := p.child.Next()
	if err != nil || rec == nil {
		return nil, err
	}
	for i, s := range p.slots {
		p.out[i] = rec[s]
	}
	return p.out, nil
}

func (p *Project) Explain() string {
	return "Project(" + strings.Join(p.columns, ", ") + ")"
}

func (p *Project) Child() Operation { return p.child }
