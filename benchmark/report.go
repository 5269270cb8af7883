package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload; its JSON form is the last line a
// single-workload invocation prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// counts holds the sample count behind a metric, for the printed
	// lines only.
	counts map[string]int
	note   string
}

func newResult(specs []metricSpec) *result {
	res := &result{Metrics: map[string]metricValue{}, counts: map[string]int{}}
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{Unit: m.Unit}
	}
	return res
}

// set records a metric that newResult declared; an undeclared name is
// a bug in the harness, not an input error.
func (res *result) set(name string, v float64, n int) {
	m, ok := res.Metrics[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the spec table")
	}
	m.Value = v
	res.Metrics[name] = m
	res.counts[name] = n
}

// print writes one line per metric: workload, name, value, unit and the
// number of samples behind it.
func (res *result) print(w io.Writer, workload string, specs []metricSpec) {
	for _, m := range specs {
		fmt.Fprintf(w, "%-13s %-28s %14.4f %-6s n=%d\n", workload, m.Name, res.Metrics[m.Name].Value, m.Unit, res.counts[m.Name])
	}
	fmt.Fprintf(w, "%-13s %-28s %14.6f %-6s %d of %d ops failed\n", workload, "failed_share",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	if res.note != "" {
		fmt.Fprintf(w, "%-13s %s\n", workload, res.note)
	}
}

// one runs one workload once, end to end or traced, and prints its
// metric lines.
func (e *env) one(name string, seed int64, seconds float64, traced bool) (*result, error) {
	wl, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	b, err := wl.build(seed)
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: e.ctx, b: b, scratch: e.dir, start: func(ctx context.Context) (*target, error) {
		e.servers++
		return startServer(ctx, e.bin, filepath.Join(e.dir, fmt.Sprintf("data-%d", e.servers)))
	}}
	var res *result
	specs := endToEnd
	if traced {
		specs = perLayer
		res, err = r.traced(seconds, e.spansPath)
	} else {
		res, err = r.endToEnd(seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.print(os.Stdout, name, specs)
	return res, nil
}

// endToEnd measures the workload on `rounds` fresh servers with tracing
// off and pools their samples.
func (r *runner) endToEnd(seconds float64) (*result, error) {
	per := unitsFor(seconds/rounds, r.b.wl.unitSeconds)
	var rs []*roundResult
	for round := 0; round < rounds; round++ {
		us, err := r.units(round*per, per)
		if err != nil {
			return nil, err
		}
		rr, err := r.plainRound(us)
		if err != nil {
			return nil, err
		}
		rs = append(rs, rr)
	}
	return summarize(rs), nil
}

// summarize turns rounds into the end-to-end metrics.
func summarize(rs []*roundResult) *result {
	res := newResult(endToEnd)
	var reads, setups, rss, rates []float64
	for _, rr := range rs {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		if res.note == "" && rr.firstErr != nil {
			res.note = "first failure: " + rr.firstErr.Error()
		}
		reads = append(reads, latencies(rr.samples, opRead)...)
		rates = append(rates, rr.unitRates...)
		setups = append(setups, rr.setupS)
		rss = append(rss, rr.rssMiB)
	}
	res.Correct = res.Failed == 0
	sorted := sortedCopy(reads)
	p50, _ := percentile(sorted, 0.50)
	p95, enough := percentile(sorted, 0.95)
	res.set("p50_ms", p50, len(reads))
	res.set("p95_ms", p95, len(reads))
	if !enough {
		res.note += fmt.Sprintf("p95_ms has fewer than %d samples beyond it: indicative only. ", minBeyond)
	}
	// Units repeat the same work, so the median unit speaks for them
	// all and one disturbed unit does not move it.
	res.set("ops_per_s", median(rates), len(rates))
	res.set("setup_s", median(setups), len(setups))
	res.set("server_rss_mb", median(rss), len(rss))
	res.note += fmt.Sprintf("per round: setup_s %.4f, server_rss_mb %.1f", setups, rss)
	return res
}

// stamp records what a set of numbers was measured on.
type stamp struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	NProc   int     `json:"nproc"`
	Go      string  `json:"go"`
	Rev     string  `json:"rev"`
}

func newStamp(ctx context.Context, seed int64, seconds float64) stamp {
	rev := "unknown" // a checkout without git history still benchmarks
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return stamp{Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(), Go: runtime.Version(), Rev: rev}
}

func (s stamp) String() string {
	return fmt.Sprintf("seed=%d seconds=%g nproc=%d go=%s rev=%s", s.Seed, s.Seconds, s.NProc, s.Go, s.Rev)
}

// all runs every workload end to end and traced, printing every metric.
func (e *env) all(seed int64, seconds float64) (failed bool, err error) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := e.one(wl.name, seed, seconds, traced)
			if err != nil {
				return false, err
			}
			failed = failed || res.Failed > 0
		}
	}
	return failed, nil
}

// resultFile is what -repeat writes and -compare reads: for every set,
// workload and end-to-end metric, the value measured.
type resultFile struct {
	Stamp stamp                           `json:"stamp"`
	Sets  []map[string]map[string]float64 `json:"sets"`
}

// values collects one metric of one workload across the sets.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if v, ok := set[workload][metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// repeat runs k end-to-end sets of every workload with the same seed
// and prints how far each metric's sets spread, against its bound.
func (e *env) repeat(k int, st stamp, out string) (failed bool, err error) {
	f := &resultFile{Stamp: st}
	for set := 0; set < k; set++ {
		values := map[string]map[string]float64{}
		for _, wl := range workloads {
			res, err := e.one(wl.name, st.Seed, st.Seconds, false)
			if err != nil {
				return false, err
			}
			failed = failed || res.Failed > 0
			values[wl.name] = map[string]float64{}
			for name, m := range res.Metrics {
				values[wl.name][name] = m.Value
			}
		}
		f.Sets = append(f.Sets, values)
	}
	fmt.Printf("\n%-13s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xs := f.values(wl.name, m.Name)
			q1, q3, _ := quartiles(xs)
			line := fmt.Sprintf("%-13s %-14s %12.4f %12.4f %12.4f", wl.name, m.Name, median(xs), q1, q3)
			if sp, ok := spread(xs); ok {
				line += fmt.Sprintf(" %7.2f%% %5.0f%%", sp*100, m.Bound*100)
				if sp > m.Bound {
					line += "  does not repeat within its bound"
				}
			}
			fmt.Println(line)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			return failed, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict judges one metric of one workload between a parent's sets and
// a change's. A pair whose sets spread wider than the bound cannot
// show a move of the size of the bound either way: it is unresolved,
// not unchanged.
func verdict(m metricSpec, parent, change []float64) (delta float64, word string) {
	a, b := median(parent), median(change)
	delta = ratio(b-a, a)
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	spA, okA := spread(parent)
	spB, okB := spread(change)
	switch {
	case !okA || !okB || spA > m.Bound || spB > m.Bound:
		return delta, "unresolved"
	case worse > m.Bound:
		return delta, "REGRESSED"
	case worse < -m.Bound:
		return delta, "improved"
	}
	return delta, "within bound"
}

// compareFiles prints the verdict for every workload and end-to-end
// metric between two -out files.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readResultFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# parent %s sets=%d\n# change %s sets=%d\n", parent.Stamp, len(parent.Sets), change.Stamp, len(change.Sets))
	fmt.Fprintf(w, "%-13s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := parent.values(wl.name, m.Name), change.values(wl.name, m.Name)
			delta, word := verdict(m, a, b)
			fmt.Fprintf(w, "%-13s %-14s %12.4f %12.4f %+7.2f%% %5.0f%%  %s\n", wl.name, m.Name, median(a), median(b), delta*100, m.Bound*100, word)
		}
	}
	return nil
}
