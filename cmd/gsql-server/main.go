// Command gsql-server runs the graph database over the RESP protocol —
// the reproduction of the paper's CFPQ-extended RedisGraph.
//
// Usage:
//
//	gsql-server -addr :6380
//	gsql-server -addr :6380 -load social=social.txt -seed core@0.5
//
// Clients speak RESP. The server answers
//
//	GRAPH.QUERY <graph> <cypher>     GRAPH.EXPLAIN <graph> <cypher>
//	GRAPH.PROFILE <graph> <cypher>   GRAPH.STATS <graph>
//	GRAPH.DUMP <graph>               GRAPH.RESTORE <graph> <dump>
//	GRAPH.DELETE <graph>             GRAPH.LIST
//	GRAPH.SAVE                       INFO [section]
//	SLOWLOG GET [n] | RESET | LEN    PING [message]
//	ECHO <message>                   QUIT, COMMAND, REPLCONF
//
// and, on a durable leader (-data-dir without -replica-of), SYNC, the
// handshake internal/repl's followers open. A follower refuses the
// writes (GRAPH.QUERY with CREATE, GRAPH.RESTORE, GRAPH.DELETE,
// GRAPH.SAVE) with a READONLY error naming its leader. See
// cmd/gsql-cli for an interactive client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mscfpq/internal/dataset"
	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
	"mscfpq/internal/obs"
	"mscfpq/internal/repl"
	"mscfpq/internal/resp"
)

// -batch-window is accepted and ignored, like gdb.Policy.BatchWindow.
//
// Deprecated: ignored; set by benchmark/ until ROADMAP item 1 drops it.
var _ = flag.Duration("batch-window", 0, "ignored; set by benchmark/ until ROADMAP item 1 drops it")

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gsql-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr          = flag.String("addr", ":6380", "listen address")
		queryTimeout  = flag.Duration("query-timeout", 0, "default per-query timeout (0 = none; per-query TIMEOUT clause overrides)")
		maxWork       = flag.Int64("max-work", 0, "per-query work budget in relation entries produced (0 = unlimited)")
		slowQuery     = flag.Duration("slow-query", 0, "log queries at or above this duration (0 = only aborted queries)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain deadline")
		dataDir       = flag.String("data-dir", "", "directory for snapshots and the op journal (empty = in-memory only)")
		saveInterval  = flag.Duration("save-interval", 0, "auto-snapshot interval for -data-dir stores (0 = only GRAPH.SAVE)")
		maxConcurrent = flag.Int("max-concurrent", 0, "commands allowed to execute at once before BUSY shedding (0 = unlimited)")
		cacheBytes    = flag.Int64("cache-bytes", 64<<20, "byte budget of the versioned query-result cache (0 = disabled)")
		maxConns      = flag.Int("max-conns", 0, "simultaneous client connections (0 = unlimited)")
		idleTimeout   = flag.Duration("idle-timeout", 0, "close connections idle for this long (0 = never)")
		metricsAddr   = flag.String("metrics-addr", "", "HTTP address serving the metrics snapshot as JSON (empty = disabled)")
		metricsDump   = flag.Duration("metrics-dump", 0, "log a metrics snapshot this often (0 = never)")
		replicaOf     = flag.String("replica-of", "", "host:port of a leader to replicate; this server becomes a read-only follower")
		loads         listFlag
		seeds         listFlag
	)
	flag.Var(&loads, "load", "name=path of a graph file to load (repeatable)")
	flag.Var(&seeds, "seed", "dataset graph to generate, name[@scale] (repeatable)")
	flag.Parse()

	if *replicaOf != "" {
		if len(loads) > 0 || len(seeds) > 0 {
			return fmt.Errorf("-replica-of is incompatible with -load/-seed: a follower's graphs come from the leader")
		}
		// A follower's snapshot rotation is driven by the leader's
		// stream; an out-of-band auto-save would desynchronize the
		// mirrored file sequence.
		*saveInterval = 0
	}
	db, err := buildDB(*dataDir, loads, seeds, log.Default())
	if err != nil {
		return err
	}
	if *replicaOf != "" {
		db.SetReplicaSource(*replicaOf)
	}
	db.SetPolicy(gdb.Policy{
		DefaultTimeout: *queryTimeout,
		MaxWork:        *maxWork,
		SlowQuery:      *slowQuery,
		MaxConcurrent:  *maxConcurrent,
		SaveInterval:   *saveInterval,
		CacheMaxBytes:  *cacheBytes,
		Log:            log.Default(),
	})
	srv := resp.NewServer(db)
	srv.Logger = log.Default()
	srv.MaxConns = *maxConns
	srv.IdleTimeout = *idleTimeout

	// Replication roles: a follower runs a stream loop pulling from its
	// leader and serves reads only; a durable leader answers SYNC so
	// followers can attach. An in-memory leader has no journal to ship
	// and stays standalone.
	var replica *repl.Replica
	replCtx, replStop := context.WithCancel(context.Background())
	defer replStop()
	if *replicaOf != "" {
		replica = repl.New(db, *replicaOf)
		srv.ReplInfo = replica.InfoLines
	} else if db.Durable() {
		hub, err := repl.NewHub(db)
		if err != nil {
			return err
		}
		srv.SyncHandler = hub.HandleSync
		srv.ReplInfo = hub.InfoLines
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	log.Printf("gsql-server listening on %s", bound)
	if replica != nil {
		go func() {
			// Run retries internally and returns only the shutdown cancellation.
			_ = replica.Run(replCtx)
		}()
		log.Printf("gsql-server replicating from %s", *replicaOf)
	}

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen %s: %w", *metricsAddr, err)
		}
		log.Printf("gsql-server metrics on http://%s/", mln.Addr())
		go func() {
			// The metrics endpoint is best-effort: its failure must not
			// take down the query server.
			if err := http.Serve(mln, obs.Handler(obs.Default)); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	if *metricsDump > 0 {
		go func() {
			for range time.Tick(*metricsDump) {
				out, err := obs.MarshalSnapshot(obs.Default.Snapshot())
				if err != nil {
					log.Printf("metrics dump: %v", err)
					continue
				}
				log.Printf("metrics\n%s", out)
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight queries. The
	// process exits non-zero only if the drain misses its deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		log.Printf("gsql-server shutting down (drain timeout %s)", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		<-serveErr // Serve returns nil once the listener closed for drain
		if err != nil {
			return err
		}
		// A durable store cuts a final snapshot and detaches cleanly, so
		// the next boot recovers from the snapshot instead of a long
		// journal replay. A follower skips the snapshot — its rotation
		// is lockstep with the leader's — and just detaches.
		replStop()
		if db.Durable() {
			if db.ReplicaSource() == "" {
				if err := db.Save(); err != nil {
					return fmt.Errorf("final snapshot: %w", err)
				}
			}
			if err := db.Close(); err != nil {
				return err
			}
		}
		log.Printf("gsql-server stopped cleanly")
		return nil
	}
}

// buildDB assembles the database: durable (recovered from dataDir's
// snapshots and journal) when dataDir is set, in-memory otherwise.
// -load and -seed graphs are provisioned in memory on every boot and
// are not journaled, but a snapshot (GRAPH.SAVE, -save-interval, or
// the final one at graceful shutdown) captures the full image, so they
// persist from the first snapshot on.
func buildDB(dataDir string, loads, seeds []string, logger *log.Logger) (*gdb.DB, error) {
	var db *gdb.DB
	if dataDir != "" {
		var err error
		db, err = gdb.Open(dataDir)
		if err != nil {
			return nil, err
		}
		logger.Printf("recovered %d graph(s) from %s", len(db.List()), dataDir)
	} else {
		db = gdb.New()
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -load %q (want name=path)", spec)
		}
		g, err := graph.LoadFile(path)
		if err != nil {
			return nil, err
		}
		db.AddGraph(name, g)
		logger.Printf("loaded %s: %d vertices, %d edges", name, g.NumVertices(), g.NumEdges())
	}
	for _, spec := range seeds {
		name, scaleStr, hasScale := strings.Cut(spec, "@")
		scale := 1.0
		if hasScale {
			var err error
			scale, err = strconv.ParseFloat(scaleStr, 64)
			if err != nil || scale <= 0 {
				return nil, fmt.Errorf("bad -seed scale %q", scaleStr)
			}
		}
		s, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		g := dataset.Generate(dataset.Scaled(s, scale))
		db.AddGraph(name, g)
		logger.Printf("seeded %s: %d vertices, %d edges", name, g.NumVertices(), g.NumEdges())
	}
	return db, nil
}
