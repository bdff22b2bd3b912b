package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

	"ssdfail/internal/loadgen"
)

// BuildDir is where the benchmark keeps everything it writes, relative
// to the directory it is run from: the daemon binaries it builds and
// one scratch directory per invocation for models, WAL directories and
// daemon logs. It is listed in the repository's .gitignore.
const BuildDir = ".bench_build"

// Env is one invocation's scratch space and the daemon binaries.
type Env struct {
	Dir    string // per-invocation scratch directory under BuildDir
	Served string // ssdserved binary
	Router string // ssdrouter binary
	BuildS float64
	WALFS  string // filesystem type holding Dir

	mu       sync.Mutex // guards procs and dirCount: the wall-clock watchdog closes the Env from its own goroutine
	procs    []*Daemon
	dirCount int
}

// NewEnv builds cmd/ssdserved and cmd/ssdrouter into BuildDir/bin (a
// no-op relink when they are current) and creates the invocation's
// scratch directory. Close removes the scratch directory and stops any
// daemon still running.
func NewEnv(ctx context.Context) (*Env, error) {
	bin, err := filepath.Abs(filepath.Join(BuildDir, "bin"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/ssdserved", "./cmd/ssdrouter")
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building daemons (run from the repository root): %v\n%s", err, out)
	}
	e := &Env{
		Served: filepath.Join(bin, "ssdserved"),
		Router: filepath.Join(bin, "ssdrouter"),
		BuildS: time.Since(t0).Seconds(),
	}
	e.Dir, err = os.MkdirTemp(filepath.Dir(bin), "run-")
	if err != nil {
		return nil, err
	}
	e.WALFS = fsType(e.Dir)
	return e, nil
}

// Close stops every daemon still running and removes the scratch
// directory. Safe to call more than once.
func (e *Env) Close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, d := range procs {
		d.Kill()
	}
	if e.Dir != "" {
		os.RemoveAll(e.Dir)
	}
}

// TempDir returns a fresh, empty directory under the scratch directory.
func (e *Env) TempDir(prefix string) (string, error) {
	e.mu.Lock()
	e.dirCount++
	dir := filepath.Join(e.Dir, fmt.Sprintf("%s-%d", prefix, e.dirCount))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// Daemon is one child process with its captured stderr.
type Daemon struct {
	Name string
	URL  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait returns
	err  error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// Start launches bin with args on a fresh ephemeral port (passed as
// -addr) and waits until GET /v1/health reports ready. The daemon's
// output is kept in the scratch directory and returned by Log.
func (e *Env) Start(ctx context.Context, name, bin string, args ...string) (*Daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(e.Dir, name+"-*.log")
	if err != nil {
		return nil, err
	}
	d := &Daemon{Name: name, URL: "http://" + addr, log: logf, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, d)
	e.mu.Unlock()
	if err := d.WaitReady(ctx, nil); err != nil {
		d.Kill()
		return nil, fmt.Errorf("%w\n%s", err, d.Log())
	}
	return d, nil
}

// PID returns the daemon's process ID.
func (d *Daemon) PID() int { return d.cmd.Process.Pid }

// Health is the part of GET /v1/health the benchmark reads.
type Health struct {
	Status         string `json:"status"`
	Drives         int    `json:"drives"`
	WALLastLSN     uint64 `json:"wal_last_lsn"`
	ReplicaApplied uint64 `json:"replica_applied"`
}

// GetHealth fetches /v1/health once.
func (d *Daemon) GetHealth(ctx context.Context) (Health, error) {
	var h Health
	code, body, err := httpGet(ctx, d.URL+"/v1/health")
	if err != nil {
		return h, err
	}
	if code != http.StatusOK {
		return h, fmt.Errorf("bench: %s health: status %d", d.Name, code)
	}
	return h, json.Unmarshal(body, &h)
}

// WaitReady polls /v1/health until it answers 200 "ready" and ok (when
// non-nil) accepts the reply, the process exits, or ctx ends.
func (d *Daemon) WaitReady(ctx context.Context, ok func(Health) bool) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		h, err := d.GetHealth(ctx)
		if err == nil && h.Status == "ready" && (ok == nil || ok(h)) {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("bench: %s exited before becoming ready: %v", d.Name, d.err)
		case <-ctx.Done():
			return fmt.Errorf("bench: %s not ready: %v (last: %+v, %v)", d.Name, ctx.Err(), h, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stop asks the daemon to shut down gracefully and waits for it to
// exit, killing it if it has not within the daemon's own drain budget.
func (d *Daemon) Stop() error {
	select {
	case <-d.done:
		return fmt.Errorf("bench: %s had already exited: %v", d.Name, d.err)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		d.log.Close()
		return d.err
	case <-time.After(20 * time.Second):
		d.Kill()
		return fmt.Errorf("bench: %s ignored SIGTERM for 20s; killed", d.Name)
	}
}

// Kill terminates the daemon immediately and reaps it.
func (d *Daemon) Kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// Log returns the daemon's captured output.
func (d *Daemon) Log() string {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return fmt.Sprintf("(%s log unreadable: %v)", d.Name, err)
	}
	return fmt.Sprintf("--- %s output ---\n%s", d.Name, b)
}

// Scrape fetches and parses the daemon's /metrics.
func (d *Daemon) Scrape(ctx context.Context) (map[string]float64, error) {
	code, body, err := httpGet(ctx, d.URL+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("bench: %s /metrics: status %d", d.Name, code)
	}
	return loadgen.ParseMetrics(string(body))
}

// controlClient serves the benchmark's untimed control-plane requests.
var controlClient = &http.Client{Timeout: 30 * time.Second}

func httpGet(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux port Go supports.
const clockTick = 100

// ProcCPU returns the user+system CPU seconds a process has consumed.
func ProcCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("bench: malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("bench: short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("bench: unparseable /proc stat CPU fields")
	}
	return float64(utime+stime) / clockTick, nil
}

// ProcRSSMB returns a process's resident set size in MB (VmRSS, or
// VmHWM — the peak — when peak is set).
func ProcRSSMB(pid int, peak bool) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	key := "VmRSS:"
	if peak {
		key = "VmHWM:"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no %s in /proc/%d/status", key, pid)
}

// SelfCPU returns the CPU seconds this process has consumed.
func SelfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fsType names the filesystem holding dir, from /proc/mounts (longest
// mount-point prefix wins); "unknown" when it cannot be determined.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}
