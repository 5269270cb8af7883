package bench

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/dataset"
	"mscfpq/internal/gdb"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/oracle"
	"mscfpq/internal/rpq"
)

// queryFor returns the paper's query for a graph (Geo for geospecies,
// G1 otherwise) plus its name.
func queryFor(graphName string) (string, *grammar.Grammar) {
	if graphName == "geospecies" {
		return "Geo", grammar.Geo()
	}
	return "G1", grammar.G1()
}

// Table1 regenerates the dataset statistics table (experiment E1).
func Table1(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "Table1",
		Title:   "Graphs for CFPQ evaluation (synthetic analogs, scaled)",
		Columns: []string{"Graph", "#V", "#E", "#subClassOf", "#type", "#broaderTransitive"},
	}
	for _, name := range cfg.graphNames() {
		g, spec, err := cfg.Generate(name)
		if err != nil {
			return nil, err
		}
		s := g.Stats()
		rep.Rows = append(rep.Rows, []string{
			spec.Name,
			fmt.Sprintf("%d", s.Vertices),
			fmt.Sprintf("%d", s.Edges),
			fmt.Sprintf("%d", s.ByLabel["subClassOf"]),
			fmt.Sprintf("%d", s.ByLabel["type"]),
			fmt.Sprintf("%d", s.ByLabel["broaderTransitive"]),
		})
	}
	rep.Notes = append(rep.Notes,
		"synthetic analogs of the CFPQ_Data graphs; names carry the scale factor (DESIGN.md §4)")
	return rep, nil
}

// fig2MaxVertices caps the graphs of the single-path experiment: the
// all-pairs relation with per-fact provenance is quadratic in the worst
// case, so E2 runs on reduced instances (the paper's own Figure 2 uses
// the all-pairs single-path algorithm of GRADES-NDA'20, which has the
// same scaling behaviour).
const fig2MaxVertices = 2500

// Fig2 measures single-path extraction (experiment E2): all-pairs
// single-path CFPQ (index construction) plus the time to extract a
// witness path for a sample of result pairs.
func Fig2(cfg Config, sample int) (*Report, error) {
	rep := &Report{
		ID:      "Fig2",
		Title:   "Single path extraction (query G1/Geo)",
		Columns: []string{"Graph", "Query", "Pairs", "Index ms", "Extract ms", "Paths", "AvgLen"},
	}
	for _, name := range cfg.graphNames() {
		scale := cfg.scaleFor(name)
		if spec, err := dataset.ByName(name); err == nil {
			if expected := float64(spec.Vertices) * scale; expected > fig2MaxVertices {
				scale *= fig2MaxVertices / expected
			}
		}
		sub := cfg
		sub.Scales = map[string]float64{name: scale}
		g, spec, err := sub.Generate(name)
		if err != nil {
			return nil, err
		}
		qname, q := queryFor(name)
		w := grammar.MustWCNF(q)
		var sp *cfpq.SinglePathResult
		indexTime, err := timeIt(func() error {
			var e error
			sp, e = cfpq.SinglePath(g, w)
			return e
		})
		if err != nil {
			return nil, err
		}
		pairs := sp.Pairs()
		count := len(pairs)
		if count > sample {
			pairs = pairs[:sample]
		}
		totalLen := 0
		extracted := 0
		extractTime, err := timeIt(func() error {
			for _, p := range pairs {
				steps, e := sp.Path(p[0], p[1])
				if e != nil {
					return e
				}
				totalLen += len(steps)
				extracted++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		avg := "0"
		if extracted > 0 {
			avg = fmt.Sprintf("%.1f", float64(totalLen)/float64(extracted))
		}
		rep.Rows = append(rep.Rows, []string{
			spec.Name, qname, fmt.Sprintf("%d", count),
			ms(indexTime), ms(extractTime), fmt.Sprintf("%d", extracted), avg,
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("extraction sampled at up to %d pairs per graph", sample))
	return rep, nil
}

// FigureSeries is one (graph, query) sweep of experiment E3-E8: mean
// per-chunk time of Algorithm 2 (fresh) vs Algorithm 3 (shared index)
// for each chunk size.
type FigureSeries struct {
	Graph  string
	Query  string
	Points []FigurePoint
}

// FigurePoint is one chunk size of a sweep.
type FigurePoint struct {
	ChunkSize  int
	Chunks     int
	MSMean     time.Duration // Algorithm 2, fresh per chunk
	SmartMean  time.Duration // Algorithm 3, shared index
	MSTotal    time.Duration
	SmartTotal time.Duration
	Answer     int // result pairs of the final chunk (sanity signal)
}

// Figures runs the multiple-source sweep (experiments E3-E8).
func Figures(cfg Config) ([]FigureSeries, error) {
	var out []FigureSeries
	for _, name := range cfg.graphNames() {
		g, spec, err := cfg.Generate(name)
		if err != nil {
			return nil, err
		}
		qname, q := queryFor(name)
		w := grammar.MustWCNF(q)
		series := FigureSeries{Graph: spec.Name, Query: qname}
		for _, size := range cfg.ChunkSizes {
			chunks := cfg.chunks(g.NumVertices(), size)
			if len(chunks) == 0 {
				continue
			}
			idx, err := cfpq.NewIndex(g, w)
			if err != nil {
				return nil, err
			}
			pt := FigurePoint{ChunkSize: size, Chunks: len(chunks)}
			for _, src := range chunks {
				d, err := timeIt(func() error {
					ms, e := cfpq.MultiSource(g, w, src)
					if e == nil {
						pt.Answer = ms.Answer().NVals()
					}
					return e
				})
				if err != nil {
					return nil, err
				}
				pt.MSTotal += d
				d, err = timeIt(func() error {
					_, e := idx.MultiSourceSmart(src)
					return e
				})
				if err != nil {
					return nil, err
				}
				pt.SmartTotal += d
			}
			pt.MSMean = pt.MSTotal / time.Duration(len(chunks))
			pt.SmartMean = pt.SmartTotal / time.Duration(len(chunks))
			series.Points = append(series.Points, pt)
		}
		out = append(out, series)
	}
	return out, nil
}

// FiguresReport renders the sweep as a table (one row per point).
func FiguresReport(series []FigureSeries) *Report {
	rep := &Report{
		ID:    "Fig3-8",
		Title: "Multiple-source sweep: Algorithm 2 (fresh) vs Algorithm 3 (cached index)",
		Columns: []string{"Graph", "Query", "ChunkSize", "Chunks",
			"MS mean ms", "Smart mean ms", "MS total ms", "Smart total ms"},
	}
	for _, s := range series {
		for _, p := range s.Points {
			rep.Rows = append(rep.Rows, []string{
				s.Graph, s.Query,
				fmt.Sprintf("%d", p.ChunkSize), fmt.Sprintf("%d", p.Chunks),
				ms(p.MSMean), ms(p.SmartMean), ms(p.MSTotal), ms(p.SmartTotal),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"smart mean drops as the shared index warms up across chunks; fresh cost stays flat",
	)
	return rep
}

// ablationReps is how many timed calls Ablation makes of each strategy,
// after one untimed call; it reports their median, so a cell does not
// depend on what the cells before it left warm in the process.
const ablationReps = 5

// medianTime calls fn once untimed, then ablationReps times timed, each
// after a full collection, so the collector's pacing is the same
// whatever garbage earlier calls left; it returns the median of the
// timed calls.
func medianTime(fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	ds := make([]time.Duration, ablationReps)
	for i := range ds {
		runtime.GC()
		d, err := timeIt(fn)
		if err != nil {
			return 0, err
		}
		ds[i] = d
	}
	slices.Sort(ds)
	return ds[len(ds)/2], nil
}

// Ablation compares three ways to answer one multiple-source query
// (experiment E9): Algorithm 2, and all-pairs naive or semi-naive plus
// a row filter. All three must agree.
func Ablation(cfg Config, graphName string, chunkSize int) (*Report, error) {
	g, spec, err := cfg.Generate(graphName)
	if err != nil {
		return nil, err
	}
	qname, q := queryFor(graphName)
	w := grammar.MustWCNF(q)
	chunks := cfg.chunks(g.NumVertices(), chunkSize)
	if len(chunks) == 0 {
		return nil, fmt.Errorf("bench: no chunks for %s", graphName)
	}
	src := chunks[0]

	var msAnswer, apAnswer, snAnswer *matrix.Bool
	msTime, err := medianTime(func() error {
		r, e := cfpq.MultiSource(g, w, src)
		if e == nil {
			msAnswer = r.Answer()
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	apTime, err := medianTime(func() error {
		r, e := cfpq.AllPairs(g, w)
		if e == nil {
			apAnswer = matrix.ExtractRows(r.Start(), src)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	snTime, err := medianTime(func() error {
		r, e := cfpq.AllPairsSemiNaive(g, w)
		if e == nil {
			snAnswer = matrix.ExtractRows(r.Start(), src)
		}
		return e
	})
	if err != nil {
		return nil, err
	}
	if !msAnswer.Equal(apAnswer) || !msAnswer.Equal(snAnswer) {
		return nil, fmt.Errorf("bench: ablation answers disagree on %s", graphName)
	}
	rep := &Report{
		ID:      "Ablation",
		Title:   fmt.Sprintf("Multiple-source strategies on %s (%s, |Src|=%d, answer=%d pairs)", spec.Name, qname, src.NVals(), msAnswer.NVals()),
		Columns: []string{"Strategy", "Time ms"},
		Rows: [][]string{
			{"Algorithm 2 (multi-source)", ms(msTime)},
			{"All-pairs + row filter", ms(apTime)},
			{"All-pairs semi-naive + row filter", ms(snTime)},
		},
		Notes: []string{
			"all three strategies returned identical answers",
			fmt.Sprintf("each time is the median of %d timed calls, each after a full collection, following one untimed call of that strategy", ablationReps),
		},
	}
	return rep, nil
}

// FullStack measures end-to-end database evaluation (experiment E10):
// the same query through the Cypher front end + execution plan vs the
// raw algorithm, plus a regular path query evaluated through CFPQ.
func FullStack(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "FullStack",
		Title:   "End-to-end GRAPH.QUERY vs raw algorithm",
		Columns: []string{"Graph", "Query", "Rows", "In-DB ms", "Warm ms", "Raw ms", "Overhead"},
	}
	db := gdb.New()

	type caseDef struct {
		graph   string
		query   string // Cypher
		raw     func(g *graph.Graph, src *matrix.Vector) (int, error)
		srcSize int
		label   string
	}
	geoCypher := `
		PATH PATTERN S = ()-/ [:broaderTransitive ~S <:broaderTransitive] | [:broaderTransitive <:broaderTransitive] /->()
		MATCH (v)-/ ~S /->(to)
		%s
		RETURN v, to`
	g2Cypher := `
		PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [:subClassOf] /->()
		MATCH (v)-/ ~S /->(to)
		%s
		RETURN v, to`
	regCypher := `MATCH (v)-/ [:subClassOf]+ /->(to) %s RETURN v, to`

	cases := []caseDef{
		{graph: "geospecies", label: "Geo", query: geoCypher, srcSize: 50,
			raw: func(g *graph.Graph, src *matrix.Vector) (int, error) {
				r, err := cfpq.MultiSource(g, grammar.MustWCNF(grammar.Geo()), src)
				if err != nil {
					return 0, err
				}
				return r.Answer().NVals(), nil
			}},
		{graph: "core", label: "G2", query: g2Cypher, srcSize: 50,
			raw: func(g *graph.Graph, src *matrix.Vector) (int, error) {
				r, err := cfpq.MultiSource(g, grammar.MustWCNF(grammar.G2()), src)
				if err != nil {
					return 0, err
				}
				return r.Answer().NVals(), nil
			}},
		{graph: "core", label: "RPQ subClassOf+", query: regCypher, srcSize: 50,
			raw: func(g *graph.Graph, src *matrix.Vector) (int, error) {
				m, err := rpq.Eval(g, "subClassOf+", src)
				if err != nil {
					return 0, err
				}
				return m.NVals(), nil
			}},
	}
	for _, c := range cases {
		g, spec, err := cfg.Generate(c.graph)
		if err != nil {
			return nil, err
		}
		db.AddGraph(spec.Name, g)
		src := cfg.chunks(g.NumVertices(), c.srcSize)[0]
		queryText := fmt.Sprintf(c.query, idIn(src.Ints()))

		var dbRows int
		dbTime, err := timeIt(func() error {
			res, e := db.Query(spec.Name, queryText)
			if e == nil {
				dbRows = len(res.Rows)
			}
			return e
		})
		if err != nil {
			return nil, err
		}
		// Second run: the store's path-pattern context cache makes the
		// warmed Algorithm 3 index answer repeated queries.
		var warmRows int
		warmTime, err := timeIt(func() error {
			res, e := db.Query(spec.Name, queryText)
			if e == nil {
				warmRows = len(res.Rows)
			}
			return e
		})
		if err != nil {
			return nil, err
		}
		if warmRows != dbRows {
			return nil, fmt.Errorf("bench: warm query rows %d != cold %d on %s/%s", warmRows, dbRows, c.graph, c.label)
		}
		var rawRows int
		rawTime, err := timeIt(func() error {
			var e error
			rawRows, e = c.raw(g, src)
			return e
		})
		if err != nil {
			return nil, err
		}
		if dbRows != rawRows {
			return nil, fmt.Errorf("bench: full-stack row count %d != raw %d on %s/%s", dbRows, rawRows, c.graph, c.label)
		}
		overhead := "n/a"
		if rawTime > 0 {
			overhead = fmt.Sprintf("%.2fx", float64(dbTime)/float64(rawTime))
		}
		rep.Rows = append(rep.Rows, []string{
			spec.Name, c.label, fmt.Sprintf("%d", dbRows), ms(dbTime), ms(warmTime), ms(rawTime), overhead,
		})
	}
	rep.Notes = append(rep.Notes,
		"row counts verified equal between the database and the raw algorithm",
		"warm = repeated query reusing the store's cached path-pattern context (Algorithm 3 index)",
	)
	return rep, nil
}

// idIn is the WHERE clause that restricts v to the vertices ids.
func idIn(ids []int) string {
	where := "WHERE id(v) IN ["
	for i, v := range ids {
		if i > 0 {
			where += ", "
		}
		where += fmt.Sprintf("%d", v)
	}
	return where + "]"
}

// RPQUnification answers one regular query through the library's one
// RPQ path (experiment E11): the regex is compiled left-linear by the
// path-pattern compiler and evaluated by the multiple-source CFPQ driver
// (rpq.Eval). The answer is checked against the relation-algebra
// oracle, timed beside it for scale.
func RPQUnification(cfg Config, graphName, regex string, srcSize int) (*Report, error) {
	g, spec, err := cfg.Generate(graphName)
	if err != nil {
		return nil, err
	}
	re, err := rpq.ParseRegex(regex)
	if err != nil {
		return nil, err
	}
	src := cfg.chunks(g.NumVertices(), srcSize)[0]

	var viaCFPQ *matrix.Bool
	cfpqTime, err := timeIt(func() error {
		var e error
		viaCFPQ, e = rpq.Eval(g, regex, src)
		return e
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	want := oracle.RPQ(g, re, src.Ints())
	oracleTime := time.Since(start)
	got := viaCFPQ.Pairs()
	if !slices.Equal(got, want) {
		return nil, fmt.Errorf("bench: RPQ via CFPQ (%d pairs) disagrees with the oracle (%d pairs) on %s", len(got), len(want), graphName)
	}

	return &Report{
		ID:      "RPQ",
		Title:   fmt.Sprintf("Regular query %q on %s (|Src|=%d)", regex, spec.Name, src.NVals()),
		Columns: []string{"Engine", "Scope", "Pairs", "Time ms"},
		Rows: [][]string{
			{"CFPQ over regex grammar (rpq.Eval)", spec.Name, fmt.Sprintf("%d", len(got)), ms(cfpqTime)},
			{"relation-algebra oracle (reference)", spec.Name, fmt.Sprintf("%d", len(want)), ms(oracleTime)},
		},
		Notes: []string{"answer verified equal to the relation-algebra oracle"},
	}, nil
}
