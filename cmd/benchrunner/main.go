// Command benchrunner regenerates the paper's evaluation artifacts
// (experiment index in DESIGN.md §3) and prints them as text tables.
//
// Usage:
//
//	benchrunner -exp all            # every experiment at default scale
//	benchrunner -exp figures -quick # the multiple-source sweep, small
//	benchrunner -exp table1 -graphs core,pathways
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mscfpq/internal/bench"
)

// sanitize keeps file names shell-friendly.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "table1 | fig2 | figures | ablation | fullstack | rpq | all")
		quick   = fs.Bool("quick", false, "use the reduced smoke-test scales")
		graphs  = fs.String("graphs", "", "comma-separated graph subset")
		chunks  = fs.String("chunks", "", "comma-separated chunk sizes for the sweep")
		seed    = fs.Int64("seed", 2021, "chunk sampling seed")
		csvPath = fs.String("csv", "", "also write the figures sweep as CSV to this path")
		svgDir  = fs.String("svg", "", "also render one SVG chart per figures series into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	if *graphs != "" {
		cfg.Graphs = strings.Split(*graphs, ",")
	}
	if *chunks != "" {
		cfg.ChunkSizes = nil
		for _, c := range strings.Split(*chunks, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(c), "%d", &n); err != nil || n < 1 {
				return fmt.Errorf("bad chunk size %q", c)
			}
			cfg.ChunkSizes = append(cfg.ChunkSizes, n)
		}
	}

	runOne := func(name string) error {
		switch name {
		case "table1":
			rep, err := bench.Table1(cfg)
			if err != nil {
				return err
			}
			return rep.Render(stdout)
		case "fig2":
			rep, err := bench.Fig2(cfg, 200)
			if err != nil {
				return err
			}
			return rep.Render(stdout)
		case "figures":
			series, err := bench.Figures(cfg)
			if err != nil {
				return err
			}
			if *csvPath != "" {
				f, err := os.Create(*csvPath)
				if err != nil {
					return err
				}
				if err := bench.WriteFiguresCSV(f, series); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
			}
			if *svgDir != "" {
				if err := os.MkdirAll(*svgDir, 0o755); err != nil {
					return err
				}
				for i, s := range series {
					name := fmt.Sprintf("fig%d_%s_%s.svg", i+3, sanitize(s.Graph), s.Query)
					path := filepath.Join(*svgDir, name)
					f, err := os.Create(path)
					if err != nil {
						return err
					}
					if err := bench.WriteFigureSVG(f, s); err != nil {
						f.Close()
						return err
					}
					if err := f.Close(); err != nil {
						return err
					}
					fmt.Fprintf(os.Stderr, "wrote %s\n", path)
				}
			}
			return bench.FiguresReport(series).Render(stdout)
		case "ablation":
			// -graphs and -chunks span E9's grid; without them one
			// |Src| = 10 query per sparse graph.
			names, sizes := []string{"core", "pathways"}, []int{10}
			if len(cfg.Graphs) > 0 {
				names = cfg.Graphs
			}
			if *chunks != "" {
				sizes = cfg.ChunkSizes
			}
			for _, g := range names {
				for _, size := range sizes {
					rep, err := bench.Ablation(cfg, g, size)
					if err != nil {
						return err
					}
					if err := rep.Render(stdout); err != nil {
						return err
					}
				}
			}
			return nil
		case "fullstack":
			rep, err := bench.FullStack(cfg)
			if err != nil {
				return err
			}
			return rep.Render(stdout)
		case "rpq":
			rep, err := bench.RPQUnification(cfg, "core", "subClassOf+", 20)
			if err != nil {
				return err
			}
			return rep.Render(stdout)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "fig2", "figures", "ablation", "fullstack", "rpq"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(*exp)
}
