package cfpq

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

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
// spans traced.
func checkDriverGrid(t *testing.T, g *graph.Graph, w *grammar.WCNF, src *matrix.Vector) {
	t.Helper()
	ap, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	half := matrix.NewVectorFromIndices(n, src.Ints()[:src.NVals()/2])
	for _, restriction := range []string{"none", "sources", "sources+processed"} {
		for _, witness := range []bool{false, true} {
			cell := fmt.Sprintf("%s/witness=%v", restriction, witness)
			tr := obs.NewTrace("driver")
			run, _ := exec.Build([]Option{WithTrace(tr)}).Start() // no timeout: nothing to cancel

			// A restricted Boolean run seeds on activation; the others
			// start from every row seeded.
			var sp *SinglePathResult
			seeds := newSeeder(g, w)
			T := newResult(w, n).T
			if witness {
				sp = &SinglePathResult{Result: newResult(w, n)}
				if err := sp.seedProv(run, g); err != nil {
					t.Fatal(err)
				}
				T = sp.T
			} else if restriction == "none" {
				if err := seeds.all(run, T, n); err != nil {
					t.Fatal(err)
				}
			}

			// solve runs one fixpoint over T and returns its rounds and
			// the sources it activated.
			solve := func(f *fixpoint, req *matrix.Vector) (int, []*matrix.Vector) {
				if req == nil {
					f.listAll()
				} else if err := f.restrict(map[int]*matrix.Vector{w.Start: req}, n); err != nil {
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
				second, active := solve(&fixpoint{w: w, run: run, seeds: seeds, witness: sp, T: T, done: done}, src)
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
// those included, must still have a provenance to extract a path from.
func TestWitnessProvenanceSurvivesAbort(t *testing.T) {
	in := govInput(20)
	n := in.g.NumVertices()
	full, err := SinglePath(in.g, in.w)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, full.Work / 4, full.Work / 2, full.Work - 1} {
		run, _ := exec.Build([]Option{WithBudget(budget)}).Start() // no timeout: nothing to cancel
		sp := &SinglePathResult{Result: newResult(in.w, n)}
		if err := sp.seedProv(run, in.g); err != nil {
			t.Fatal(err)
		}
		f := &fixpoint{w: in.w, run: run, seeds: newSeeder(in.g, in.w), witness: sp, T: sp.T}
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
