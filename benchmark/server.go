package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mscfpq/internal/resp"
)

// serverArgs are the flags of every gsql-server the harness starts, so
// a difference between workloads is never a difference in
// configuration. The mirrors of the traced run take the same cache and
// batch settings from the same constants.
func serverArgs(dataDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-cache-bytes", strconv.Itoa(cacheBytes),
		"-batch-window", batchWindow.String(),
	}
}

// buildDir holds everything the harness writes: the server binary and
// one directory of per-round data dirs per run. It lives in the
// checkout so a run touches nothing outside it.
const buildDir = ".bench_build"

// buildServer compiles ./cmd/gsql-server into buildDir/bin. The go
// tool skips the link when the binary is current, so only the first
// run in a checkout pays for the build.
func buildServer(ctx context.Context) (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "gsql-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gsql-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build gsql-server: %w\n%s", err, out)
	}
	return bin, nil
}

// target is a running server the harness drives over RESP: the real
// gsql-server subprocess, or the in-process server of the package test.
type target struct {
	addr string
	pid  int
	stop func()
}

// startServer launches one fresh gsql-server over an empty data dir and
// waits for the bound address in its log. The process dies with ctx.
func startServer(ctx context.Context, bin, dataDir string) (*target, error) {
	cmd := exec.CommandContext(ctx, bin, serverArgs(dataDir)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gsql-server: %w", err)
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			// Kill, not TERM: a graceful stop cuts a final snapshot the
			// benchmark has no use for. Wait reaps the process and ends
			// the log-drain goroutine (the pipe closes).
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
	}

	// The log line carries the kernel-assigned port. Keep draining the
	// pipe afterwards so a chatty server never blocks on a full pipe.
	const marker = "gsql-server listening on "
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), marker); ok {
				select {
				case addrCh <- strings.TrimSpace(addr):
				default:
				}
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			stop()
			return nil, fmt.Errorf("gsql-server exited before listening")
		}
		return &target{addr: addr, pid: cmd.Process.Pid, stop: stop}, nil
	case <-time.After(10 * time.Second):
		stop()
		return nil, fmt.Errorf("gsql-server did not report its address within 10s")
	case <-ctx.Done():
		stop()
		return nil, ctx.Err()
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, io.ErrUnexpectedEOF
}

// serverInfo fetches INFO and parses its key:value lines.
func serverInfo(c *resp.Client) (map[string]int64, error) {
	v, err := c.Do("INFO")
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, line := range strings.Split(v.Str, "\n") {
		k, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, nil
}
