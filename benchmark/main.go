// Command benchmark is the repository's one wire-level benchmark: it
// builds and starts the real gsql-server, restores generated graphs into
// it over RESP, drives four named workloads through resp.Client, checks
// every reply against a reference relation, and prints every metric by
// name with its unit. See README.md in this directory.
//
//	go run ./benchmark -seed 1                     # every workload, end to end and traced
//	go run ./benchmark -workload mixed-rw -trace 1 # one run; the last line is its JSON result
//	go run ./benchmark -repeat 5 -out base.json    # five sets, spread against each bound
//	go run ./benchmark -compare base.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time a
// run's work is sized for on the baseline machine.
const defaultSeconds = 15

// harnessHeapLimit is where the harness's own collector kicks in.
const harnessHeapLimit = 256 << 20

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its JSON result as the last line (default: all)")
		seed         = flag.Int64("seed", 1, "seed of the generated request streams")
		seconds      = flag.Float64("seconds", defaultSeconds, "measuring time the run's fixed amount of work is sized for")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		repeat       = flag.Int("repeat", 0, "run this many end-to-end sets of every workload and print each metric's spread against its bound")
		out          = flag.String("out", "", "write the sets of -repeat to this JSON file, for -compare")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments")
		spans        = flag.String("spans", "", "with -trace 1: write the recorded spans to this JSON-lines file at exit")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	// The box's cores are shared with the server under test: the harness
	// never runs more goroutines at once than it has connections, and
	// never more of either than there are cores.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	// Decoding replies makes garbage fast (a dense-scan reply is ~100 KB
	// on the wire, a megabyte decoded); at the default pacing the
	// harness would collect dozens of times a second beside the server
	// it is timing. Collect only when the heap reaches the limit: the
	// live set is a few megabytes, so those cycles are rare and short.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(harnessHeapLimit)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer env.cleanup()
	env.spansPath = *spans

	st := newStamp(ctx, *seed, *seconds)
	fmt.Println("# benchmark", st)
	var failed bool
	switch {
	case *repeat > 0:
		failed, err = env.repeat(*repeat, st, *out)
	case *workloadName != "":
		var res *result
		res, err = env.one(*workloadName, *seed, *seconds, *trace != 0)
		if err == nil {
			failed = res.Failed > 0
			line, _ := json.Marshal(res) // result holds only strings, numbers and bools
			fmt.Println(string(line))
		}
	default:
		failed, err = env.all(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: failed_share > 0")
		return 1
	}
	return 0
}

// env is what every run of one invocation shares: the built server and
// the invocation's scratch directory.
type env struct {
	ctx       context.Context
	bin       string
	dir       string
	spansPath string
	servers   int // data dirs handed out so far
}

func newEnv(ctx context.Context) (*env, error) {
	bin, err := buildServer(ctx)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{ctx: ctx, bin: bin, dir: dir}, nil
}

// cleanup removes the invocation's data dirs. Servers are stopped by
// the rounds that started them (and die with ctx on a signal).
func (e *env) cleanup() {
	_ = os.RemoveAll(e.dir) // best effort: leftovers sit in an ignored build dir
}
