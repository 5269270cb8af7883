package cfpq

import (
	"math/rand"
	"testing"

	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

func TestMultiSourceSinglePathMatchesMultiSource(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	labels := []string{"a", "b", "subClassOf"}
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				n := 3 + rng.Intn(14)
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				src := matrix.NewVector(n)
				for v := 0; v < n; v++ {
					if rng.Intn(3) == 0 {
						src.Set(v)
					}
				}
				ms, err := MultiSource(g, w, src)
				if err != nil {
					t.Fatal(err)
				}
				sp, err := MultiSourceSinglePath(g, w, src)
				if err != nil {
					t.Fatal(err)
				}
				if !sp.Answer().Equal(ms.Answer()) {
					t.Fatalf("trial %d: answers differ\nsp: %v\nms: %v",
						trial, sp.Answer().Pairs(), ms.Answer().Pairs())
				}
			}
		})
	}
}

func TestMultiSourceSinglePathExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := testGrammars()["anbn"]
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(12)
		g := randomGraph(rng, n, 2+rng.Intn(3*n), []string{"a", "b"})
		src := matrix.NewVector(n)
		for v := 0; v < n/2; v++ {
			src.Set(v)
		}
		sp, err := MultiSourceSinglePath(g, w, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range sp.Answer().Pairs() {
			steps, err := sp.Path(pair[0], pair[1])
			if err != nil {
				t.Fatalf("trial %d pair %v: %v", trial, pair, err)
			}
			verifyPath(t, g, w, "S", pair[0], pair[1], steps)
		}
	}
}

func TestMultiSourceSinglePathPaperExample(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	src := matrix.NewVectorFromIndices(6, []int{3})
	sp, err := MultiSourceSinglePath(g, w, src)
	if err != nil {
		t.Fatal(err)
	}
	pairs := sp.Answer().Pairs()
	if len(pairs) != 1 || pairs[0] != [2]int{3, 4} {
		t.Fatalf("answer = %v", pairs)
	}
	steps, err := sp.Path(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	word := Word(steps)
	if len(word) != 3 || word[0] != "c" || word[1] != "y" || word[2] != "d" {
		t.Fatalf("witness = %v", word)
	}
}

// TestSinglePathProductsCounted: a witness product is the driver's one
// kernel like any other, so a single-path trace counts its products, and
// since witness seeding charges nothing, the products are the whole
// charge.
func TestSinglePathProductsCounted(t *testing.T) {
	g, w := paperGraph(), cndGrammar()
	for name, solve := range map[string]func(tr *obs.Trace) (*Result, error){
		"MultiSourceSinglePath": func(tr *obs.Trace) (*Result, error) {
			r, err := MultiSourceSinglePath(g, w, matrix.NewVectorFromIndices(6, []int{3, 4}), WithTrace(tr))
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		},
		"SinglePath": func(tr *obs.Trace) (*Result, error) {
			r, err := SinglePath(g, w, WithTrace(tr))
			if err != nil {
				return nil, err
			}
			return r.Result, nil
		},
	} {
		got := traced(t, solve)
		if got.mulOps == 0 || got.mulNNZ != got.work || got.addOps == 0 {
			t.Errorf("%s: traced %+v; want products counted and mul_nnz equal to the charge", name, got)
		}
	}
}

func TestMultiSourceSinglePathErrors(t *testing.T) {
	if _, err := MultiSourceSinglePath(nil, nil, nil); err == nil {
		t.Fatal("expected error for nil inputs")
	}
	if _, err := MultiSourceSinglePath(paperGraph(), cndGrammar(), matrix.NewVector(2)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}
