// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §3 for the
// experiment index E1-E11). It is shared by the benchrunner binary and
// the root testing.B benchmarks.
//
// Absolute times will differ from the paper's (different hardware and
// substrate); the harness exists to reproduce the *shapes*: who wins,
// by what factor, and how behaviour changes with the source-set size.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"mscfpq/internal/dataset"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// Config tunes experiment size so the suite fits interactive runs.
type Config struct {
	// Scale multiplies the published dataset sizes (per-graph overrides
	// in Scales win). Typical CI value: 0.05.
	Scale float64
	// Scales overrides Scale per graph name.
	Scales map[string]float64
	// ChunkSizes are the source-set sizes of the multiple-source sweep.
	ChunkSizes []int
	// MaxChunks bounds how many chunks of each size are measured.
	MaxChunks int
	// Graphs selects dataset graphs; nil = the default evaluation set.
	Graphs []string
	// Seed drives chunk sampling.
	Seed int64
}

// DefaultConfig returns a configuration that completes in minutes on a
// laptop while preserving the published edge/vertex ratios.
func DefaultConfig() Config {
	return Config{
		Scale: 1,
		Scales: map[string]float64{
			// The published sizes range from 1.3k to 5.7M vertices; the
			// largest graphs are scaled down (documented in DESIGN.md §4).
			"core":         1,
			"pathways":     1,
			"go-hierarchy": 0.10,
			"enzyme":       0.25,
			"eclass_514en": 0.05,
			"go":           0.05,
			"geospecies":   0.02,
			"taxonomy":     0.004,
		},
		ChunkSizes: []int{1, 10, 100, 1000},
		MaxChunks:  8,
		Seed:       2021,
	}
}

// QuickConfig shrinks everything further for unit-test-speed smoke runs
// and the testing.B entry points.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Scales = map[string]float64{
		"core": 0.5, "pathways": 0.25, "go-hierarchy": 0.01, "enzyme": 0.04,
		"eclass_514en": 0.008, "go": 0.008, "geospecies": 0.005, "taxonomy": 0.0006,
	}
	cfg.ChunkSizes = []int{1, 10, 100}
	cfg.MaxChunks = 3
	return cfg
}

// graphNames returns the selected dataset graphs.
func (c Config) graphNames() []string {
	if len(c.Graphs) > 0 {
		return c.Graphs
	}
	return []string{"core", "pathways", "go-hierarchy", "enzyme", "eclass_514en", "go", "geospecies", "taxonomy"}
}

// scaleFor resolves the effective scale of one graph.
func (c Config) scaleFor(name string) float64 {
	if s, ok := c.Scales[name]; ok {
		return s
	}
	if c.Scale > 0 {
		return c.Scale
	}
	return 1
}

// Generate materializes one dataset graph under the config.
func (c Config) Generate(name string) (*graph.Graph, dataset.Spec, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, spec, err
	}
	spec = dataset.Scaled(spec, c.scaleFor(name))
	return dataset.Generate(spec), spec, nil
}

// chunks partitions a shuffled vertex permutation into source sets of
// the given size, keeping at most MaxChunks of them.
func (c Config) chunks(n, size int) []*matrix.Vector {
	if size > n {
		size = n
	}
	rng := rand.New(rand.NewSource(c.Seed))
	perm := rng.Perm(n)
	var out []*matrix.Vector
	for lo := 0; lo < n && len(out) < c.MaxChunks; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, matrix.NewVectorFromIndices(n, perm[lo:hi]))
	}
	return out
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// Report is a rendered experiment: a title, column headers, and rows.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	fmt.Fprintln(w, line(r.Columns))
	fmt.Fprintln(w, strings.Repeat("-", sum(widths)+2*(len(widths)-1)))
	for _, row := range r.Rows {
		fmt.Fprintln(w, line(row))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}
