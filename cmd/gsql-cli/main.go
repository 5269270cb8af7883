// Command gsql-cli is an interactive client for gsql-server.
//
// Usage:
//
//	gsql-cli -addr localhost:6380
//
// Commands inside the REPL:
//
//	use <graph>            select the graph for queries
//	list                   GRAPH.LIST
//	delete [graph]         GRAPH.DELETE (the selected graph by default)
//	save                   GRAPH.SAVE (snapshot, durable servers)
//	explain <query>        GRAPH.EXPLAIN on the selected graph
//	profile <query>        GRAPH.PROFILE on the selected graph
//	                       (per-operator plan profile; a raw
//	                       "PROFILE <query>" line lands here too)
//	trace <query>          GRAPH.QUERY with the PROFILE prefix: the
//	                       query's span tree (parse/plan/fixpoint
//	                       rounds with kernel counters)
//	info [section]         INFO (server metrics; sections: server, gdb,
//	                       cache, kernels, durability, replication)
//	slowlog [get [n]|len|reset]  the server's slow-query log
//	ping                   PING
//	quit
//	<anything else>        GRAPH.QUERY on the selected graph
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mscfpq/internal/resp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gsql-cli:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:6380", "server address")
	graphName := flag.String("graph", "g", "initial graph name")
	flag.Parse()

	c, err := resp.Dial(*addr)
	if err != nil {
		return err
	}
	//lint:ignore errdrop closing the client at process exit; nothing can act on the error
	defer c.Close()
	if err := c.Ping(); err != nil {
		return err
	}
	fmt.Printf("connected to %s (graph %q; 'use <name>' to switch, 'quit' to exit)\n", *addr, *graphName)
	return repl(c, *graphName, os.Stdin, os.Stdout)
}

// repl reads commands from in and writes responses to out until EOF or
// a quit command. Lines ending in a backslash continue on the next
// line, so multi-clause PATH PATTERN queries can be typed naturally.
func repl(c *resp.Client, current string, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for {
		fmt.Fprintf(out, "%s> ", current)
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		for strings.HasSuffix(line, "\\") {
			fmt.Fprintf(out, "...> ")
			if !sc.Scan() {
				break
			}
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(sc.Text())
		}
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return nil
		case "ping":
			if err := c.Ping(); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "PONG")
			}
		case "use":
			if rest == "" {
				fmt.Fprintln(out, "usage: use <graph>")
				continue
			}
			current = strings.TrimSpace(rest)
		case "list":
			names, err := c.GraphList()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, n := range names {
				fmt.Fprintln(out, n)
			}
		case "delete":
			name := strings.TrimSpace(rest)
			if name == "" {
				name = current
			}
			if err := c.GraphDelete(name); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "OK")
			}
		case "save":
			if err := c.GraphSave(); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "OK")
			}
		case "explain":
			lines, err := c.GraphExplain(current, rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, l := range lines {
				fmt.Fprintln(out, l)
			}
		case "profile":
			lines, err := c.GraphProfile(current, rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, l := range lines {
				fmt.Fprintln(out, l)
			}
		case "trace":
			reply, err := c.GraphQuery(current, "PROFILE "+rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			for _, s := range reply.Stats {
				fmt.Fprintln(out, s)
			}
		case "info", "slowlog":
			if cmd == "slowlog" && rest == "" {
				rest = "get"
			}
			args := append([]string{strings.ToUpper(cmd)}, strings.Fields(rest)...)
			reply, err := c.Do(args...)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			printValue(out, reply, 0)
		default:
			reply, err := c.GraphQuery(current, line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if len(reply.Columns) > 0 {
				fmt.Fprintln(out, strings.Join(reply.Columns, " | "))
			}
			for _, row := range reply.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = fmt.Sprintf("%d", v)
				}
				fmt.Fprintln(out, strings.Join(cells, " | "))
			}
			for _, s := range reply.Stats {
				fmt.Fprintln(out, "--", s)
			}
		}
	}
}

// printValue renders a generic RESP reply: bulk text verbatim,
// integers as numbers, arrays indented one level per nesting (the
// SLOWLOG entry shape).
func printValue(out io.Writer, v resp.Value, depth int) {
	indent := strings.Repeat("  ", depth)
	switch v.Kind {
	case resp.Array:
		for _, e := range v.Array {
			printValue(out, e, depth+1)
		}
	case resp.Integer:
		fmt.Fprintf(out, "%s%d\n", indent, v.Int)
	default:
		for _, line := range strings.Split(strings.TrimRight(v.Str, "\n"), "\n") {
			fmt.Fprintf(out, "%s%s\n", indent, line)
		}
	}
}
