package main

import (
	"bufio"
	"bytes"
	"context"
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
)

// Daemon settings shared by every workload. Node counts are
// deterministic only with one search worker; the candidate budget
// makes every search end by a count, never by the request timeout.
const (
	daemonGOMAXPROCS = 2
	daemonWorkers    = 1
	daemonMaxCand    = 20000
)

// daemonFlags are the rtserved flags of every run besides -addr and
// -store-dir; all others keep their defaults.
func daemonFlags() []string {
	return []string{"-workers", strconv.Itoa(daemonWorkers), "-maxcand", strconv.Itoa(daemonMaxCand)}
}

// daemon is one rtserved process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *lockedBuffer
	exited chan struct{}
}

// lockedBuffer collects the daemon's standard error.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs rtserved on a fresh loopback port over storeDir.
// gctrace makes the Go runtime log every collection to standard
// error, for the traced run's runtime metrics.
func startDaemon(bin, storeDir string, gctrace bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-store-dir", storeDir}, daemonFlags()...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonGOMAXPROCS))
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, stderr: &lockedBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = d.stderr
	// the daemon dies with the benchmark even if the benchmark is killed
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rtserved: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /healthz until the daemon answers.
func (d *daemon) waitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("rtserved exited during start-up:\n%s", d.stderr.String())
		default:
		}
		if resp, err := c.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return fmt.Errorf("rtserved not ready after %s:\n%s", timeout, d.stderr.String())
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
}

// metrics scrapes /metrics into name → value (without the rtm_ prefix).
func (d *daemon) metrics(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[strings.TrimPrefix(name, "rtm_")] = v
		}
	}
	return out, sc.Err()
}

// cpuTime is the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// fields after the parenthesized command name; utime and stime
	// are fields 14 and 15 of the whole line
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// statusMB reads a size field (such as VmHWM) of the daemon's
// /proc status in MB.
func (d *daemon) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
