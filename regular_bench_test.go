package mscfpq

import (
	"fmt"
	"strings"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/dataset"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
	"mscfpq/internal/plan"
	"mscfpq/internal/rpq"
)

// regularShapes are regular path expressions over go-hierarchy's
// subClassOf edges, each as a MATCH path and, where it has one, as a
// regex: a closure after a closure, a closure of an alternation, a
// positive closure after a step, and a run of steps, then a closure
// after and a step before a reference to the paper's G2.
var regularShapes = []struct{ name, path, regex string }{
	{"star-star", "[:subClassOf_r]* [:subClassOf]*", "subClassOf_r* subClassOf*"},
	{"alt-star-step", "[:subClassOf_r | :type_r]* :subClassOf", "(subClassOf_r | type_r)* subClassOf"},
	{"step-plus", ":subClassOf_r [:subClassOf]+", "subClassOf_r subClassOf+"},
	{"four-steps", ":subClassOf_r :subClassOf_r :subClassOf :subClassOf", "subClassOf_r subClassOf_r subClassOf subClassOf"},
	{"ref-star", "~S [:subClassOf]*", ""},
	{"step-ref", ":subClassOf_r ~S", ""},
}

// BenchmarkRegularShapes answers each regular shape from a hundred
// sources on go-hierarchy, cold: a MATCH through plan.Build on a fresh
// path pattern context, and the regex through rpq.Eval. Both compile
// the expression with the one path compiler and run the multiple-source
// driver. Besides ns/op it reports the fixpoint rounds, the product
// entries (kernel.mul.nnz) and the answer pairs per op. go-hierarchy@1,
// the paper's size, is skipped under -short.
func BenchmarkRegularShapes(b *testing.B) {
	spec, err := dataset.ByName("go-hierarchy")
	if err != nil {
		b.Fatal(err)
	}
	sources, ids := make([]int, 100), make([]string, 100)
	for i := range sources {
		sources[i], ids[i] = i, fmt.Sprint(i)
	}
	const decl = "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [:subClassOf] /->() "
	for _, scale := range []float64{0.1, 1} {
		if scale == 1 && testing.Short() {
			continue
		}
		g := dataset.Generate(dataset.Scaled(spec, scale))
		src := matrix.NewVectorFromIndices(g.NumVertices(), sources)
		for _, s := range regularShapes {
			q, err := cypher.Parse(decl + "MATCH (v)-/ " + s.path + " /->(to) WHERE id(v) IN [" + strings.Join(ids, ", ") + "] RETURN count(to)")
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("scale=%g/%s/match", scale, s.name), func(b *testing.B) {
				measureShape(b, func() (int, error) {
					p, err := plan.Build(q, plan.NewEnv(g, nil, nil))
					if err != nil {
						return 0, err
					}
					rs, err := p.Execute()
					if err != nil || len(rs.Rows()) == 0 {
						return 0, err
					}
					return int(rs.Rows()[0][0]), nil
				})
			})
			if s.regex == "" {
				continue
			}
			b.Run(fmt.Sprintf("scale=%g/%s/rpq", scale, s.name), func(b *testing.B) {
				measureShape(b, func() (int, error) {
					m, err := rpq.Eval(g, s.regex, src)
					if err != nil {
						return 0, err
					}
					return m.NVals(), nil
				})
			})
		}
	}
}

// measureShape times run, which answers one query and returns its pair
// count, and reports rounds, product entries and pairs per op.
func measureShape(b *testing.B, run func() (int, error)) {
	rounds, nnz, pairs := obs.CFPQRounds.Sum(), obs.KernelMulNNZ.Value(), 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := run()
		if err != nil {
			b.Fatal(err)
		}
		pairs += n
	}
	b.StopTimer()
	b.ReportMetric(float64(obs.CFPQRounds.Sum()-rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(obs.KernelMulNNZ.Value()-nnz)/float64(b.N), "nnz/op")
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}
