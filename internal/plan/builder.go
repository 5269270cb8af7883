package plan

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
)

// Plan is a compiled, executable query plan.
type Plan struct {
	root    Operation
	Columns []string
	ctx     *PathCtx
	env     *Env
}

// ResultSet holds the rows produced by plan execution. Values are
// vertex ids.
type ResultSet struct {
	Columns []string
	// Cells holds the rows back to back, row-major: exactly NumRows ×
	// len(Columns) cells in an array of its own, which whoever keeps the
	// answer (the query cache) may keep as it is.
	Cells   []int64
	NumRows int
}

// Rows cuts the result into one slice per row (CutRows), nil for none.
func (r *ResultSet) Rows() [][]int64 { return CutRows(r.Cells, r.NumRows) }

// Build compiles a parsed MATCH query against an environment. CREATE
// statements are handled by the storage layer, not the planner.
func Build(q *cypher.Query, env *Env) (*Plan, error) {
	ctx, err := NewPathCtx(env.G, q.PathPatterns)
	if err != nil {
		return nil, err
	}
	return BuildWithCtx(q, env, ctx)
}

// BuildWithCtx compiles the query against a pre-built path pattern
// context, letting the database layer share one context — and therefore
// one Algorithm 3 index — across queries that declare the same PATH
// PATTERNs over the same graph (the paper's repeated-query scenario).
// The caller must guarantee ctx matches q's PATH PATTERN declarations
// and env's graph (see PathCtx.Key).
func BuildWithCtx(q *cypher.Query, env *Env, ctx *PathCtx) (*Plan, error) {
	if q.Match == nil {
		return nil, fmt.Errorf("plan: query has no MATCH clause")
	}
	if q.Return == nil {
		return nil, fmt.Errorf("plan: query has no RETURN clause")
	}
	env.Ctx = ctx

	// Stage 1 (paper Figure 9): fold the MATCH patterns into the query
	// graph, merging shared variables and their constraints.
	qg, err := BuildQueryGraph(q.Match)
	if err != nil {
		return nil, err
	}
	// One record slot per query-graph node.
	slots := map[string]int{}
	for i, n := range qg.Nodes {
		slots[n.Name] = i
	}
	width := len(qg.Nodes)

	// Pending WHERE predicates, placed as soon as their variables bind.
	pending, err := splitConjunction(q.Where)
	if err != nil {
		return nil, err
	}
	bound := map[int]bool{}
	var root Operation
	attachFilters := func() {
		for i := 0; i < len(pending); {
			vars, perr := predVars(pending[i])
			if perr != nil {
				i++
				continue
			}
			ready := true
			for _, v := range vars {
				s, ok := slots[v]
				if !ok || !bound[s] {
					ready = false
					break
				}
			}
			if ready {
				root = NewFilter(env, root, pending[i], slots)
				pending = append(pending[:i], pending[i+1:]...)
			} else {
				i++
			}
		}
	}
	// bindNode scans (or re-checks) a query-graph node: the first label
	// drives the scan, an id predicate on an unbound node turns it into
	// a seek, extra merged labels and property constraints become
	// filters.
	bindNode := func(idx int) {
		n := qg.Nodes[idx]
		label := ""
		if len(n.Labels) > 0 {
			label = n.Labels[0]
		}
		var ids []int64
		seek := false
		if !bound[idx] {
			ids, seek = takeIDs(&pending, n.Name)
		}
		if seek {
			root = newNodeSeek(env, root, width, idx, label, ids)
		} else {
			root = NewNodeScan(env, root, width, idx, label)
		}
		bound[idx] = true
		for _, l := range n.Labels[min(1, len(n.Labels)):] {
			root = NewFilter(env, root, cypher.HasLabel{Var: n.Name, Label: l}, slots)
		}
		for _, p := range n.Props {
			root = NewFilter(env, root, cypher.PropCompare{Var: n.Name, Key: p.Key, Val: p.Val}, slots)
		}
		attachFilters()
	}

	// selectivityScore ranks how tightly a node is constrained, for
	// choosing which end of a chain to scan from: an exact id beats an
	// id list beats labels/properties beats nothing; already-bound
	// nodes win outright (their records are already restricted).
	selectivityScore := func(idx int) int {
		if bound[idx] {
			return 100
		}
		n := qg.Nodes[idx]
		score := 0
		if len(n.Labels) > 0 || len(n.Props) > 0 {
			score = 1
		}
		for _, pred := range pending {
			vars, err := predVars(pred)
			if err != nil || len(vars) != 1 {
				continue
			}
			if s, ok := slots[vars[0]]; !ok || s != idx {
				continue
			}
			switch pred.(type) {
			case cypher.IDCompare:
				if score < 3 {
					score = 3
				}
			case cypher.IDIn:
				if score < 2 {
					score = 2
				}
			default:
				if score < 1 {
					score = 1
				}
			}
		}
		return score
	}

	// Stage 2: linearize the query graph into chains and compile each
	// chain edge into the grammar of the traverse that drives it.
	covered := map[int]bool{}
	freeDst := false // the last traverse's destination was unbound before it
	for _, chain := range qg.Chains() {
		// Orient the chain so the scan starts at the more selective
		// end: a filter on the destination would otherwise force a full
		// scan of the sources (the multiple-source pattern in reverse).
		if selectivityScore(chain[len(chain)-1].To) > selectivityScore(chain[0].From) {
			chain = reverseChain(chain)
		}
		bindNode(chain[0].From)
		covered[chain[0].From] = true
		for _, e := range chain {
			// Destination node labels are folded into the traverse, so it
			// lands only on correctly labeled vertices.
			dst := qg.Nodes[e.To]
			name, conn := "CFPQTraverse", e.Conn
			if r, ok := conn.(cypher.RelPattern); ok {
				name, conn = "CondTraverse", relPath(r, env.G)
			}
			c, ok := conn.(cypher.PathApply)
			if !ok {
				return nil, fmt.Errorf("plan: unsupported connection %T", e.Conn)
			}
			path, err := ctx.compilePath(c, dst.Labels)
			if err != nil {
				return nil, err
			}
			root = &Traverse{name: name, env: env, child: root, fromSlot: e.From, toSlot: e.To, path: path}
			freeDst = !bound[e.To]
			bound[e.To] = true
			covered[e.To] = true
			for _, p := range dst.Props {
				root = NewFilter(env, root, cypher.PropCompare{Var: dst.Name, Key: p.Key, Val: p.Val}, slots)
			}
			attachFilters()
		}
	}
	// Standalone nodes (MATCH (v) RETURN v) still need a scan.
	for idx := range qg.Nodes {
		if !covered[idx] && !bound[idx] {
			bindNode(idx)
		}
	}
	if len(pending) > 0 {
		attachFilters()
		if len(pending) > 0 {
			return nil, fmt.Errorf("plan: WHERE references unbound variables: %s", pending[0])
		}
	}

	// Projection / aggregation, then ordering and pagination.
	var cols []OutCol
	hasCount, onlyCounts := false, true
	for _, item := range q.Return.Items {
		col := OutCol{Count: item.Count, Slot: -1}
		switch {
		case item.Count && item.Var == "*":
			col.Name = "count(*)"
		case item.Count:
			s, ok := slots[item.Var]
			if !ok {
				return nil, fmt.Errorf("plan: RETURN references unknown variable %q", item.Var)
			}
			col.Slot = s
			col.Name = "count(" + item.Var + ")"
		default:
			s, ok := slots[item.Var]
			if !ok {
				return nil, fmt.Errorf("plan: RETURN references unknown variable %q", item.Var)
			}
			col.Slot = s
			col.Name = item.Var
		}
		if item.Alias != "" {
			col.Name = item.Alias
		}
		hasCount = hasCount || item.Count
		onlyCounts = onlyCounts && item.Count
		cols = append(cols, col)
	}
	names := colNames(cols)
	// Counts alone over a traverse that binds its destination and that
	// nothing filters count the traverse's pairs: CountRows sums row
	// lengths instead of aggregating a record per pair.
	t, traverseRoot := root.(*Traverse)
	switch {
	case onlyCounts && traverseRoot && freeDst:
		root = &CountRows{Traverse: t, cols: cols}
	case hasCount:
		root = NewAggregate(root, cols)
	default:
		projSlots := make([]int, len(cols))
		for i, c := range cols {
			projSlots[i] = c.Slot
		}
		root = NewProject(root, names, projSlots)
	}
	if len(q.Return.OrderBy) > 0 {
		var keys []sortKey
		for _, ob := range q.Return.OrderBy {
			idx := -1
			for i, n := range names {
				if n == ob.Name {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("plan: ORDER BY %q is not a returned column", ob.Name)
			}
			keys = append(keys, sortKey{col: idx, desc: ob.Desc})
		}
		root = NewSort(root, keys)
	}
	if q.Return.Skip > 0 || q.Return.Limit > 0 {
		root = NewPaginate(root, q.Return.Skip, q.Return.Limit)
	}

	return &Plan{root: root, Columns: names, ctx: ctx, env: env}, nil
}

// reverseChain flips a traversal chain end to end: edges run in
// opposite order with swapped endpoints and inverted connections, so
// the matched relation is identical.
func reverseChain(chain []QGEdge) []QGEdge {
	out := make([]QGEdge, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i]
		var conn cypher.Connection
		switch c := e.Conn.(type) {
		case cypher.RelPattern:
			c.Inverse = !c.Inverse
			conn = c
		case cypher.PathApply:
			c.Inverse = !c.Inverse
			conn = c
		default:
			return chain // unknown connection: keep original orientation
		}
		out = append(out, QGEdge{From: e.To, To: e.From, Conn: conn})
	}
	return out
}

// Footprint reports what executing the plan reads of its snapshot, when
// that is only the rows of one declared path pattern for a fixed source
// set: a NodeByIdSeek without a label whose every id names a vertex,
// one traverse of a bare reference to a declared pattern, counted by
// CountRows or with only operators that reshape records above it
// (Project, Aggregate, Sort, Paginate). Such a plan answers the same at
// every version where those rows are the same. It returns the sources'
// vertex bound, the largest id + 1 (0 for an empty list): the vertex
// count a version needs for every source to exist. It returns -1 for
// any other plan: a scan, a label or property read, a pattern the query
// compiles itself, or no declarations at all.
func (p *Plan) Footprint() int {
	if p.ctx == nil || p.ctx.cf == nil {
		return -1
	}
	op := p.root
	for reshapes := true; reshapes; {
		switch op.(type) {
		case *Project, *Aggregate, *Sort, *Paginate:
			op = op.Child()
		default:
			reshapes = false
		}
	}
	if c, isCount := op.(*CountRows); isCount {
		op = c.Traverse
	}
	t, isTraverse := op.(*Traverse)
	if !isTraverse || t.path.start < 0 || len(t.path.rules.Prods) > 0 || t.path.w != p.ctx.idx.W {
		return -1
	}
	s, isScan := t.child.(*NodeScan)
	if !isScan || !s.seek || !s.exact || s.label != "" || s.child != nil || s.slot != t.fromSlot {
		return -1
	}
	if len(s.verts) == 0 {
		return 0
	}
	return s.verts[len(s.verts)-1] + 1 // a seek's ids are sorted
}

// Execute runs the plan to completion, ungoverned.
func (p *Plan) Execute() (*ResultSet, error) { return p.ExecuteWith() }

// executeCheckRecords is how many records drainRows pulls between
// governor checks (operator-internal work is governed separately
// through the environment's Run).
const executeCheckRecords = 256

// ExecuteWith runs the plan to completion under execution options: the
// context, timeout, and budget govern every operator pull, expression
// evaluation, and nested multiple-source resolution of this execution.
func (p *Plan) ExecuteWith(opts ...exec.Option) (*ResultSet, error) {
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	if p.env != nil {
		p.env.Run = run
		defer func() { p.env.Run = nil }()
	}
	if err := run.Err(); err != nil {
		return nil, err
	}
	if err := p.root.Open(); err != nil {
		return nil, err
	}
	n, cells, err := drainRows(p.root, run)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: p.Columns, Cells: cells, NumRows: n}, nil
}

// drainPool recycles the room drainRows collects cells in, so that a
// steady stream of executions allocates each answer once and no room
// to grow it in.
var drainPool = sync.Pool{New: func() any { return new([]int64) }}

// drainKeepMax is the largest room (in cells, 512 KiB) given back to
// drainPool; a longer one is dropped rather than held by the pool.
const drainKeepMax = 1 << 16

// drainRows pulls op dry and returns the number of records and their
// cells, back to back (nil for none). A record is valid only until the
// next pull, so the cells are collected in a pooled room, then copied
// into one array of exactly their size that nothing else refers to:
// whoever keeps them (the query cache) pins the bytes it accounts for
// and no buffer of the execution. The room never leaves drainRows.
func drainRows(op Operation, run *exec.Run) (int, []int64, error) {
	room := drainPool.Get().(*[]int64)
	n, cells, err := drainInto((*room)[:0], op, run)
	var answer []int64
	if err == nil && n > 0 {
		answer = append(make([]int64, 0, len(cells)), cells...)
	}
	// Only once the answer is copied out may another execution take the
	// room.
	if cap(cells) <= drainKeepMax {
		*room = cells[:0]
		drainPool.Put(room)
	}
	if err != nil {
		return 0, nil, err
	}
	return n, answer, nil
}

// drainInto appends op's records to cells until op is dry, checking
// the governor every executeCheckRecords records. It returns the
// records pulled and cells, grown as needed.
func drainInto(cells []int64, op Operation, run *exec.Run) (int, []int64, error) {
	for pulled := 0; ; pulled++ {
		if pulled%executeCheckRecords == 0 {
			if err := run.Err(); err != nil {
				return pulled, cells, err
			}
		}
		rec, err := op.Next()
		if err != nil || rec == nil {
			return pulled, cells, err
		}
		if len(cells)+len(rec) > cap(cells) {
			cells = append(make([]int64, 0, max(512, 2*cap(cells))), cells...)
		}
		cells = append(cells, rec...)
	}
}

// CutRows cuts n rows of equal width from the row-major array cells
// (nil for none). Each row's capacity ends with it, so an append to a
// row copies instead of writing into the next.
func CutRows(cells []int64, n int) [][]int64 {
	if n == 0 {
		return nil
	}
	rows, width := make([][]int64, n), len(cells)/n
	for i := range rows {
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// Explain renders the operation tree, root first.
func (p *Plan) Explain() string {
	var b strings.Builder
	depth := 0
	for op := p.root; op != nil; op = op.Child() {
		b.WriteString(strings.Repeat("    ", depth))
		b.WriteString(op.Explain())
		b.WriteByte('\n')
		depth++
	}
	if p.ctx != nil && p.ctx.cf != nil {
		b.WriteString("Path pattern context:\n")
		for _, rule := range strings.SplitAfter(p.ctx.cf.String(), "\n") {
			if rule != "" {
				b.WriteString("    " + rule)
			}
		}
	}
	return b.String()
}

// splitConjunction flattens an AND tree into a predicate list.
func splitConjunction(e cypher.Expr) ([]cypher.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if and, ok := e.(cypher.AndExpr); ok {
		l, err := splitConjunction(and.Left)
		if err != nil {
			return nil, err
		}
		r, err := splitConjunction(and.Right)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	}
	return []cypher.Expr{e}, nil
}

// takeIDs removes from pending the first id predicate on variable name,
// id(name) = k or id(name) IN [...], and returns the ids it allows.
func takeIDs(pending *[]cypher.Expr, name string) ([]int64, bool) {
	for i, pred := range *pending {
		var ids []int64
		switch p := pred.(type) {
		case cypher.IDCompare:
			if p.Var == name {
				ids = []int64{p.ID}
			}
		case cypher.IDIn:
			if p.Var == name {
				ids = p.IDs
			}
		}
		if ids != nil {
			*pending = slices.Delete(*pending, i, i+1)
			return ids, true
		}
	}
	return nil, false
}

// predVars lists the variables a predicate reads.
func predVars(e cypher.Expr) ([]string, error) {
	switch v := e.(type) {
	case cypher.IDCompare:
		return []string{v.Var}, nil
	case cypher.IDIn:
		return []string{v.Var}, nil
	case cypher.HasLabel:
		return []string{v.Var}, nil
	case cypher.PropCompare:
		return []string{v.Var}, nil
	case cypher.AndExpr:
		l, _ := predVars(v.Left)
		r, _ := predVars(v.Right)
		return append(l, r...), nil
	default:
		return nil, fmt.Errorf("plan: unsupported predicate %T", e)
	}
}
