package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mscfpq/internal/resp"
)

// rounds is how many fresh servers an end-to-end run measures on.
// Set-up is paid once per round, so setup_s is a median of this many
// set-ups, and a slow or lucky process start cannot colour a whole run.
const rounds = 5

// sample is one timed request.
type sample struct {
	kind opKind
	ms   float64
}

// latencies returns the samples of one kind, in milliseconds.
func latencies(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

// roundResult is what one round on one server produced.
type roundResult struct {
	setupS    float64
	rssMiB    float64
	unitRates []float64 // per unit: timed operations / wall time of its timed phase
	samples   []sample
	attempted int
	failed    int
	firstErr  error            // first failed op, for the report
	info      map[string]int64 // INFO counters gained over the timed phases
}

// runner drives one workload. start abstracts the server: the real
// subprocess, or the in-process server of the package test.
type runner struct {
	ctx     context.Context
	b       *built
	scratch string // existing directory for the traced round's durable mirror
	start   func(ctx context.Context) (*target, error)
}

// unitsFor turns a time budget into a whole number of units.
func unitsFor(seconds, unitSeconds float64) int {
	return max(1, int(math.Round(seconds/unitSeconds)))
}

// units generates units [first, first+n) of the run; the first of them
// opens a round.
func (r *runner) units(first, n int) ([]unit, error) {
	out := make([]unit, n)
	for i := range out {
		u, err := r.b.wl.unit(r.b, first+i, i == 0)
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// dial opens one client per connection of the workload.
func dial(addr string, n int) ([]*resp.Client, func(), error) {
	clients := make([]*resp.Client, 0, n)
	closeAll := func() {
		for _, c := range clients {
			//lint:ignore errdrop the server is killed next; there is nothing to flush
			_ = c.Close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := resp.Dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, c)
	}
	return clients, closeAll, nil
}

// plainRound measures units on one fresh server with tracing off.
func (r *runner) plainRound(us []unit) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	tgt, err := r.start(r.ctx)
	if err != nil {
		return nil, err
	}
	defer tgt.stop()
	clients, closeAll, err := dial(tgt.addr, len(us[0].conns))
	if err != nil {
		return nil, err
	}
	defer closeAll()

	res.info = map[string]int64{}
	for i, u := range us {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		if err := runPrelude(clients[0], u.prelude); err != nil {
			return nil, err
		}
		if i == 0 {
			// Set-up ends where the first timed request begins.
			res.setupS = time.Since(t0).Seconds()
		}
		// INFO is read around the timed phase only, so the counters leave
		// out the untimed restores and warm-up reads between units.
		before, err := serverInfo(clients[0])
		if err != nil {
			return nil, err
		}
		runTimed(clients, u.conns, res)
		after, err := serverInfo(clients[0])
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			res.info[k] += v - before[k]
		}
	}
	if res.rssMiB, err = peakRSSMiB(tgt.pid); err != nil {
		return nil, err
	}
	return res, nil
}

// runPrelude sends a unit's untimed requests. A failure here leaves the
// server in an unknown state, so it aborts the run instead of counting
// as a failed operation.
func runPrelude(c *resp.Client, prelude []op) error {
	for _, o := range prelude {
		v, err := c.Do(o.args...)
		if err := checkReply(o, v, err); err != nil {
			return fmt.Errorf("untimed %s: %w", o.args[0], err)
		}
	}
	return nil
}

// runTimed sends each connection's script from its own goroutine, one
// request at a time (closed loop), timing and checking every reply.
func runTimed(clients []*resp.Client, scripts [][]op, res *roundResult) {
	type connResult struct {
		samples []sample
		failed  int
		err     error
	}
	out := make([]connResult, len(scripts))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range scripts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cr := &out[i]
			cr.samples = make([]sample, 0, len(scripts[i]))
			for j, o := range scripts[i] {
				t := time.Now()
				v, err := clients[i].Do(o.args...)
				d := time.Since(t)
				if bad := checkReply(o, v, err); bad != nil {
					if cr.err == nil {
						cr.err = fmt.Errorf("connection %d op %d: %w", i, j, bad)
					}
					cr.failed++
					var se *resp.ServerError
					if err != nil && !errors.As(err, &se) {
						// Transport failure: the connection is gone, so
						// the rest of its script fails with it.
						cr.failed += len(scripts[i]) - j - 1
						return
					}
					continue
				}
				cr.samples = append(cr.samples, sample{kind: o.kind, ms: float64(d.Nanoseconds()) / 1e6})
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	done := 0
	for i, cr := range out {
		done += len(cr.samples)
		res.attempted += len(scripts[i])
		res.failed += cr.failed
		res.samples = append(res.samples, cr.samples...)
		if res.firstErr == nil {
			res.firstErr = cr.err
		}
	}
	res.unitRates = append(res.unitRates, float64(done)/wall)
}
