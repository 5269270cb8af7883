package cfpq

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// checkDriverGrid drives the fixpoint directly through its whole grid,
// {unrestricted, restricted, restricted + processed set} x {Boolean,
// witness}, which the five public callers only cover in part (no caller
// pairs the processed set with witnesses). In every cell the relations
// must equal AllPairs on the rows the run claims and hold nothing false
// elsewhere, every witness must replay to a path of the graph whose word
// the nonterminal derives, and the rounds reported must be the round
// spans traced. The public witness runs must be their Boolean runs
// (checkWitnessRuns).
func checkDriverGrid(t *testing.T, g *graph.Graph, w *grammar.WCNF, src *matrix.Vector) {
	t.Helper()
	checkWitnessRuns(t, g, w, src)
	ap, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	half := matrix.NewVectorFromIndices(n, src.Ints()[:src.NVals()/2])
	for _, restriction := range []string{"none", "sources", "sources+processed"} {
		for _, witness := range []bool{false, true} {
			cell := fmt.Sprintf("%s/witness=%v", restriction, witness)
			tr := obs.NewTrace("driver", time.Now())
			run, _ := exec.Build([]Option{WithTrace(tr)}).Start() // no timeout: nothing to cancel

			// A restricted run seeds on activation; an unrestricted one
			// starts from every row seeded.
			var sp *SinglePathResult
			seeds := newSeeder(g, w)
			T := newResult(w, n).T
			if witness {
				sp = (&SinglePathResult{Result: newResult(w, n)}).logging(seeds)
				T = sp.T
			}
			if restriction == "none" {
				if err := seeds.all(run, T, n); err != nil {
					t.Fatal(err)
				}
			}

			// solve runs one fixpoint over T, restricted by the marks
			// when req is set, and returns its rounds and the sources it
			// activated.
			marks := noMarks(len(T), n)
			solve := func(f *fixpoint, req *matrix.Vector) (int, []*matrix.Vector) {
				if req == nil {
					f.listAll()
				} else if err := f.restrict(w.Start, req, marks); err != nil {
					t.Fatal(err)
				}
				if err := f.solve(); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				return f.rounds, f.active
			}
			var rounds int
			var rows []*matrix.Vector // nil: every row is claimed
			switch restriction {
			case "none":
				rounds, _ = solve(&fixpoint{w: w, run: run, seeds: seeds, witness: sp, T: T}, nil)
			case "sources":
				rounds, rows = solve(&fixpoint{w: w, run: run, seeds: seeds, witness: sp, T: T}, src)
			default:
				first, done := solve(&fixpoint{w: w, run: run, seeds: seeds, witness: sp, T: T}, half)
				second, active := solve(&fixpoint{w: w, run: run, seeds: seeds, witness: sp, T: T}, src) // the marks hold done
				rounds, rows = first+second, done
				for a := range rows {
					if again := active[a].Clone(); again.DiffInPlace(done[a]) {
						t.Fatalf("%s: %s re-activated processed sources", cell, w.Nonterms[a])
					}
					rows[a].UnionInPlace(active[a])
				}
			}
			tr.Close()
			if spans := len(tr.Root().Children); spans != rounds || rounds == 0 {
				t.Fatalf("%s: %d rounds reported, %d round spans traced", cell, rounds, spans)
			}

			if rows != nil {
				missing := src.Clone()
				missing.DiffInPlace(rows[w.Start])
				if !missing.Empty() {
					t.Fatalf("%s: requested sources %v never activated", cell, missing.Ints())
				}
			}
			for a := range T {
				if extra := matrix.Sub(T[a], ap.T[a]); !extra.Empty() {
					t.Fatalf("%s: %s holds false facts %v", cell, w.Nonterms[a], extra.Pairs())
				}
				got, want := T[a], ap.T[a]
				if rows != nil {
					got, want = matrix.ExtractRows(got, rows[a]), matrix.ExtractRows(want, rows[a])
				}
				if !got.Equal(want) {
					t.Fatalf("%s: %s differs from AllPairs on its claimed rows\ngot  %v\nwant %v",
						cell, w.Nonterms[a], got.Pairs(), want.Pairs())
				}
				if !witness {
					continue
				}
				for _, p := range got.Pairs() {
					steps, err := sp.PathFor(w.Nonterms[a], p[0], p[1])
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					verifyPath(t, g, w, w.Nonterms[a], p[0], p[1], steps)
				}
			}
		}
	}
}

// checkWitnessRuns: a witness run is its Boolean run plus a log, so
// SinglePath equals AllPairsSemiNaive, and MultiSourceSinglePath equals
// MultiSource, on every relation, the rounds and the work, seeds
// included, and the second pair on the sources too.
func checkWitnessRuns(t *testing.T, g *graph.Graph, w *grammar.WCNF, src *matrix.Vector) {
	t.Helper()
	same := func(name string, got, want *Result) {
		t.Helper()
		for a := range want.T {
			if !got.T[a].Equal(want.T[a]) {
				t.Fatalf("%s: %s differs from its Boolean run", name, w.Nonterms[a])
			}
		}
		if got.Rounds != want.Rounds || got.Work != want.Work {
			t.Fatalf("%s: %d rounds and work %d, its Boolean run %d and %d", name, got.Rounds, got.Work, want.Rounds, want.Work)
		}
	}
	ap, err := AllPairsSemiNaive(g, w)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SinglePath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	same("SinglePath", sp.Result, ap)
	ms, err := MultiSource(g, w, src)
	if err != nil {
		t.Fatal(err)
	}
	msp, err := MultiSourceSinglePath(g, w, src)
	if err != nil {
		t.Fatal(err)
	}
	same("MultiSourceSinglePath", msp.Result, ms.Result)
	for a := range ms.Src {
		if !msp.Src[a].Equal(ms.Src[a]) {
			t.Fatalf("MultiSourceSinglePath: %s sources %v, MultiSource %v", w.Nonterms[a], msp.Src[a].Ints(), ms.Src[a].Ints())
		}
	}
}

// TestWitnessSameRoundFactor: T grows in place within a round, so over
// 0 -x-> 1 -y-> 2 -z-> 3 with A -> x y before S -> A z, S gains (0,3)
// in the round A gains its factor (0,2). A height is therefore the
// number of the derive call, not of the round: every entry of every
// relation must have a path.
func TestWitnessSameRoundFactor(t *testing.T) {
	w := grammar.MustWCNF(grammar.MustNew("S", []grammar.Production{
		{LHS: "A", RHS: []grammar.Symbol{grammar.T("x"), grammar.T("y")}},
		{LHS: "S", RHS: []grammar.Symbol{grammar.N("A"), grammar.T("z")}},
	}))
	if r := w.BinRules; len(r) != 2 || w.Nonterms[r[0].A] != "A" || w.Nonterms[r[1].A] != "S" {
		t.Fatalf("rules %v: want A's rule before S's", r)
	}
	g := graph.New(4)
	g.AddEdge(0, "x", 1)
	g.AddEdge(1, "y", 2)
	g.AddEdge(2, "z", 3)
	for name, sp := range map[string]func() (*SinglePathResult, error){
		"SinglePath": func() (*SinglePathResult, error) { return SinglePath(g, w) },
		"MultiSourceSinglePath": func() (*SinglePathResult, error) {
			r, err := MultiSourceSinglePath(g, w, matrix.NewVectorFromIndices(4, []int{0}))
			if err != nil {
				return nil, err
			}
			return r.SinglePathResult, nil
		},
	} {
		r, err := sp()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Start().Get(0, 3) {
			t.Fatalf("%s: S lacks (0,3)", name)
		}
		for a, m := range r.T {
			for _, p := range m.Pairs() {
				steps, err := r.PathFor(w.Nonterms[a], p[0], p[1])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				verifyPath(t, g, w, w.Nonterms[a], p[0], p[1], steps)
			}
		}
	}
}

// TestWitnessFactorsStrictlyLower: under A -> a | A c, one derive call
// adds both (0,1) and (0,2), from seeds (0,3) and (0,4), and c's cycle
// 1 <-> 2 makes each of the two a candidate mid vertex of the other,
// met before the true one. A search that took a factor of its own
// height would go round that cycle; a factor must be strictly lower.
func TestWitnessFactorsStrictlyLower(t *testing.T) {
	w := grammar.MustWCNF(grammar.MustNew("A", []grammar.Production{
		{LHS: "A", RHS: []grammar.Symbol{grammar.T("a")}},
		{LHS: "A", RHS: []grammar.Symbol{grammar.N("A"), grammar.T("c")}},
	}))
	g := graph.New(5)
	g.AddEdge(0, "a", 3)
	g.AddEdge(0, "a", 4)
	g.AddEdge(3, "c", 1)
	g.AddEdge(4, "c", 2)
	g.AddEdge(1, "c", 2)
	g.AddEdge(2, "c", 1)
	sp, err := SinglePath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 2} {
		steps, err := sp.Path(0, j)
		if err != nil {
			t.Fatal(err)
		}
		verifyPath(t, g, w, "A", 0, j, steps)
		if len(steps) != 2 {
			t.Fatalf("path to %d: %v, want a then c", j, Word(steps))
		}
	}
}

func TestDriverGridFigure1(t *testing.T) {
	for _, src := range [][]int{{3, 4}, {0, 5}, {0, 1, 2, 3, 4, 5}, {}} {
		checkDriverGrid(t, paperGraph(), cndGrammar(), matrix.NewVectorFromIndices(6, src))
	}
}

func TestDriverGridQuick(t *testing.T) {
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			f := func(edges []uint16, seeds []uint8) bool {
				const n = 12
				src := matrix.NewVector(n)
				for _, s := range seeds {
					src.Set(int(s) % n)
				}
				checkDriverGrid(t, quickGraph(n, edges), w, src)
				return !t.Failed()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWitnessProvenanceSurvivesAbort: a witness run cut off by its
// budget keeps in T what the cut product added, so every entry of T,
// those included, must still have a derivation to extract a path from.
// The seeds are laid outside the budgeted run, so the budgets cut the
// products alone.
func TestWitnessProvenanceSurvivesAbort(t *testing.T) {
	in := govInput(20)
	n := in.g.NumVertices()
	full, err := SinglePath(in.g, in.w)
	if err != nil {
		t.Fatal(err)
	}
	seeded := func() *SinglePathResult {
		sp := (&SinglePathResult{Result: newResult(in.w, n)}).logging(newSeeder(in.g, in.w))
		if err := sp.seeds.all(nil, sp.T, n); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	products := full.Work
	for _, m := range seeded().T {
		products -= int64(m.NVals())
	}
	for _, budget := range []int64{1, products / 4, products / 2, products - 1} {
		run, _ := exec.Build([]Option{WithBudget(budget)}).Start() // no timeout: nothing to cancel
		sp := seeded()
		f := &fixpoint{w: in.w, run: run, seeds: sp.seeds, witness: sp, T: sp.T}
		f.listAll()
		if err := f.solve(); !errors.Is(err, exec.ErrBudget) {
			t.Fatalf("budget %d: err = %v, want ErrBudget", budget, err)
		}
		for a, m := range sp.T {
			for _, p := range m.Pairs() {
				if _, err := sp.PathFor(in.w.Nonterms[a], p[0], p[1]); err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
			}
		}
	}
}
