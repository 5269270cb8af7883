package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mscfpq/internal/gdb"
)

// cacheReps is how many cold/warm latency samples each source set
// takes; each warm sample batches cacheWarmInner hits so the
// microsecond hit path is not lost in timer jitter. cacheWindows is how
// many throughput windows each reader count runs.
const (
	cacheReps      = 9
	cacheWarmInner = 64
	cacheWindows   = 5
	// cacheMinSpeedup is the acceptance gate: a warm hit must be at
	// least this much faster than the cold evaluation it replaces.
	cacheMinSpeedup = 10
)

// declG1 is the paper's G1 (grammar.G1) as a PATH PATTERN declaration.
const declG1 = "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [<:type ~S :type] | [<:subClassOf :subClassOf] | [<:type :type] /->() "

// CacheMeasurement is one row of the cache experiment, as serialized
// into BENCH_cache.json by `make bench-smoke`: either a cold-vs-warm
// latency pair (Readers == 0) or a concurrent-reader throughput run,
// whose ThroughputQPS is the median window and Q1/Q3 its quartiles.
type CacheMeasurement struct {
	Workload      string  `json:"workload"`
	Graph         string  `json:"graph"`
	Query         string  `json:"query"`
	Sources       int     `json:"sources,omitempty"`
	ColdMS        float64 `json:"cold_ms,omitempty"`
	WarmMS        float64 `json:"warm_ms,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"`
	Readers       int     `json:"readers,omitempty"`
	ThroughputQPS float64 `json:"throughput_qps,omitempty"`
	ThroughputQ1  float64 `json:"throughput_q1_qps,omitempty"`
	ThroughputQ3  float64 `json:"throughput_q3_qps,omitempty"`
	Reps          int     `json:"reps"`
}

// CacheBench measures the query result cache the server serves
// (DESIGN.md §11) through gdb.DB.QueryContext: the latency of a cold G1
// statement, on a freshly added store with a cold path-pattern index,
// vs a warm hit of the same text, for each source-set size; and the
// aggregate throughput of 1/4/8 concurrent readers of an all-hit cache.
// It returns an error if any warm hit fails the >=10x acceptance gate.
func CacheBench(cfg Config) (*Report, []CacheMeasurement, error) {
	const graphName = "core"
	g, spec, err := cfg.Generate(graphName)
	if err != nil {
		return nil, nil, err
	}
	qname, _ := queryFor(graphName)
	ctx := context.Background()
	db := gdb.New()
	db.SetPolicy(gdb.Policy{CacheMaxBytes: 64 << 20})
	text := func(ids []int) string {
		return declG1 + "MATCH (v)-/ ~S /->(to) " + idIn(ids) + " RETURN v, to"
	}

	rep := &Report{
		ID:      "Cache",
		Title:   "Query result cache through QueryContext: cold vs warm latency and reader scaling",
		Columns: []string{"Workload", "Sources/Readers", "Cold ms", "Warm ms", "Speedup", "QPS (q1-q3)"},
	}
	var out []CacheMeasurement

	for _, size := range cfg.ChunkSizes {
		srcs := cfg.chunks(g.NumVertices(), size)
		if len(srcs) == 0 {
			continue
		}
		src := srcs[0]
		q := text(src.Ints())
		var cold, warm time.Duration
		for trial := 0; trial < cacheReps; trial++ {
			// A fresh store per trial: a new incarnation the cache holds
			// nothing for, and a cold path-pattern index.
			db.AddGraph(spec.Name, g)
			var rows int
			dCold, err := timeIt(func() error {
				hits := db.Cache().Stats().Hits
				res, err := db.QueryContext(ctx, spec.Name, q)
				if err == nil && db.Cache().Stats().Hits != hits {
					return fmt.Errorf("cold run hit the cache")
				}
				if err == nil {
					rows = len(res.Rows)
				}
				return err
			})
			if err != nil {
				return nil, nil, fmt.Errorf("cold size %d: %w", size, err)
			}
			dWarm, err := timeIt(func() error {
				hits := db.Cache().Stats().Hits
				for i := 0; i < cacheWarmInner; i++ {
					res, err := db.QueryContext(ctx, spec.Name, q)
					if err != nil {
						return err
					}
					if len(res.Rows) != rows {
						return fmt.Errorf("warm run answered %d rows, cold %d", len(res.Rows), rows)
					}
				}
				if got := db.Cache().Stats().Hits - hits; got != cacheWarmInner {
					return fmt.Errorf("%d of %d warm runs hit the cache", got, cacheWarmInner)
				}
				return nil
			})
			if err != nil {
				return nil, nil, fmt.Errorf("warm size %d: %w", size, err)
			}
			dWarm /= cacheWarmInner
			if cold == 0 || dCold < cold {
				cold = dCold
			}
			if warm == 0 || dWarm < warm {
				warm = dWarm
			}
		}
		if warm <= 0 {
			warm = time.Nanosecond
		}
		speedup := float64(cold) / float64(warm)
		m := CacheMeasurement{
			Workload: "cold-vs-warm", Graph: spec.Name, Query: qname,
			Sources: src.NVals(),
			ColdMS:  float64(cold.Nanoseconds()) / 1e6,
			WarmMS:  float64(warm.Nanoseconds()) / 1e6,
			Speedup: speedup, Reps: cacheReps,
		}
		out = append(out, m)
		rep.Rows = append(rep.Rows, []string{
			m.Workload, fmt.Sprintf("%d src", m.Sources), ms(cold), ms(warm),
			fmt.Sprintf("%.0fx", speedup), "-",
		})
		if speedup < cacheMinSpeedup {
			return nil, nil, fmt.Errorf(
				"cache acceptance gate failed: %d sources: warm %.4fms vs cold %.4fms (%.1fx < %dx)",
				m.Sources, m.WarmMS, m.ColdMS, speedup, cacheMinSpeedup)
		}
	}

	// Concurrent readers of a warm cache: every statement is a hit, so
	// this measures the snapshot pin, contention on the cache's lock and
	// the rows each hit cuts, not evaluation. The reader counts take
	// their windows in turn, so drift of the machine spreads over all.
	var texts []string
	for _, src := range cfg.chunks(g.NumVertices(), cfg.ChunkSizes[len(cfg.ChunkSizes)-1]) {
		texts = append(texts, text(src.Ints()))
		if _, err := db.QueryContext(ctx, spec.Name, texts[len(texts)-1]); err != nil {
			return nil, nil, err
		}
	}
	misses := db.Cache().Stats().Misses
	const window = 100 * time.Millisecond
	readerCounts := []int{1, 4, 8}
	qps := make([][]float64, len(readerCounts))
	for w := 0; w < cacheWindows; w++ {
		for k, readers := range readerCounts {
			n, err := readWindow(ctx, db, spec.Name, texts, readers, window)
			if err != nil {
				return nil, nil, fmt.Errorf("%d readers: %w", readers, err)
			}
			qps[k] = append(qps[k], float64(n)/window.Seconds())
		}
	}
	if got := db.Cache().Stats().Misses; got != misses {
		return nil, nil, fmt.Errorf("concurrent readers missed the cache %d times", got-misses)
	}
	for k, readers := range readerCounts {
		q1, med, q3 := quartiles(qps[k])
		m := CacheMeasurement{
			Workload: "concurrent-readers", Graph: spec.Name, Query: qname,
			Readers: readers, ThroughputQPS: med, ThroughputQ1: q1, ThroughputQ3: q3,
			Reps: cacheWindows,
		}
		out = append(out, m)
		rep.Rows = append(rep.Rows, []string{
			m.Workload, fmt.Sprintf("%d readers", readers), "-", "-", "-",
			fmt.Sprintf("%.0f (%.0f-%.0f)", med, q1, q3),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"cold/warm are per-mode minima over %d reps (warm batches of %d); acceptance: warm hit >= %dx faster than cold; QPS is the median (quartiles) of %d windows of %s on an all-hit cache",
		cacheReps, cacheWarmInner, cacheMinSpeedup, cacheWindows, window))
	return rep, out, nil
}

// readWindow runs readers goroutines that send texts in turn to graph
// name of db for one window, and returns how many statements they
// answered.
func readWindow(ctx context.Context, db *gdb.DB, name string, texts []string, readers int, window time.Duration) (int, error) {
	counts := make([]int, readers)
	errs := make([]error, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.QueryContext(ctx, name, texts[i%len(texts)]); err != nil {
					errs[r] = err
					return
				}
				counts[r]++
			}
		}(r)
	}
	time.Sleep(window)
	close(stop)
	wg.Wait()
	n := 0
	for r := range counts {
		if errs[r] != nil {
			return 0, errs[r]
		}
		n += counts[r]
	}
	return n, nil
}

// quartiles returns the lower quartile, the median and the upper
// quartile of xs by nearest rank.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return s[n/4], s[n/2], s[3*n/4]
}

// WriteCacheJSON serializes the measurements as indented JSON.
func WriteCacheJSON(w io.Writer, ms []CacheMeasurement) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}
