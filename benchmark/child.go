package main

// Building cfpqd and running it as a child process, and reading what the
// operating system and the server's own endpoints say about it from outside.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// moduleRoot walks up from the working directory to the go.mod of the
// program under test: `go run ./benchmark` starts at the root, `go test`
// in the package directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/cfpqd from source into the benchmark's own
// output directory and reports how long that took.
func buildServer(ctx context.Context, root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "bin", "cfpqd")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cfpqd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("benchmark: building cfpqd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// procs tracks every child so that each exit path can kill what is left.
type procs struct {
	mu   sync.Mutex
	live map[*cfpqd]bool
}

func (p *procs) add(s *cfpqd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = map[*cfpqd]bool{}
	}
	p.live[s] = true
}

func (p *procs) remove(s *cfpqd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, s)
}

func (p *procs) killAll() {
	p.mu.Lock()
	left := make([]*cfpqd, 0, len(p.live))
	for s := range p.live {
		left = append(left, s)
	}
	p.mu.Unlock()
	for _, s := range left {
		s.kill()
	}
}

// cfpqd is one running server.
type cfpqd struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	log     *os.File
	procs   *procs
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs cfpqd on dataDir and waits until /readyz answers 200.
// The child's log goes to logPath (appended across restarts); it dies with
// the benchmark process even when that is killed outright.
func startServer(ctx context.Context, p *procs, bin, dataDir, logPath string, extra ...string) (*cfpqd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("benchmark: starting cfpqd: %w", err)
	}
	s := &cfpqd{cmd: cmd, base: "http://" + addr, dataDir: dataDir, log: logf, procs: p}
	p.add(s)
	if err := s.waitReady(ctx, 30*time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *cfpqd) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	hc := &http.Client{Timeout: 2 * time.Second}
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("benchmark: cfpqd at %s not ready within %v (log: %s)", s.base, limit, s.log.Name())
}

func (s *cfpqd) pid() int { return s.cmd.Process.Pid }

func (s *cfpqd) reap() {
	_ = s.cmd.Wait() // the exit status of a process we signalled says nothing
	s.log.Close()
	s.procs.remove(s)
}

// kill is the crash: SIGKILL, no shutdown snapshot.
func (s *cfpqd) kill() {
	_ = s.cmd.Process.Kill()
	s.reap()
}

// stop is the clean exit: SIGTERM, wait, SIGKILL if it overstays.
func (s *cfpqd) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.reap(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// procStat is what /proc says about a process.
type procStat struct {
	cpu   time.Duration // utime + stime
	hwmMB float64       // VmHWM, the peak resident set
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procStat, error) {
	var ps procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw)
	rest = rest[strings.LastIndexByte(rest, ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("benchmark: short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * clockTick
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if kb, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.Fields(kb)[0], 64)
			ps.hwmMB = v / 1024
		}
	}
	return ps, sc.Err()
}

// selfCPU is the generator's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vars is the slice of /debug/vars the benchmark reads.
type vars struct {
	Memstats struct {
		TotalAlloc   uint64
		Mallocs      uint64
		NumGC        uint32
		PauseTotalNs uint64
	} `json:"memstats"`
	Cfpqd struct {
		IndexBuilds int64 `json:"index_builds"`
		WarmStarts  int64 `json:"warm_starts"`
		WALAppends  int64 `json:"wal_appends"`
		WALBytes    int64 `json:"wal_bytes"`
		WALFsyncs   int64 `json:"wal_fsyncs"`
	} `json:"cfpqd"`
	Store struct {
		ReplayedRecords int64 `json:"replayed_records"`
	} `json:"cfpqd_store"`
}

// probe is one reading of every outside instrument of a server.
type probe struct {
	vars     vars
	httpReqs float64       // Σ cfpqd_http_request_duration_seconds_count
	scrape   time.Duration // how long GET /metrics took
	proc     procStat
	sent     int64 // client requests sent before this probe began
}

// takeProbe scrapes /metrics, /debug/vars and /proc. The request counter is
// read first, so a window between two probes expects exactly sent₂ − sent₁
// requests in the server's histogram: the first probe's own /metrics
// request is observed after it renders, the second one's is not yet.
func (c *client) takeProbe(ctx context.Context, s *cfpqd) (probe, error) {
	var p probe
	p.sent = c.sent.Load()
	start := time.Now()
	body, err := c.must(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return p, err
	}
	p.scrape = time.Since(start)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "cfpqd_http_request_duration_seconds_count") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				return p, fmt.Errorf("benchmark: parsing %q: %w", line, err)
			}
			p.httpReqs += v
		}
	}
	body, err = c.must(ctx, http.MethodGet, s.base+"/debug/vars", nil)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(body, &p.vars); err != nil {
		return p, fmt.Errorf("benchmark: decoding /debug/vars: %w", err)
	}
	p.proc, err = readProc(s.pid())
	return p, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
