package main

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
	"sync/atomic"
	"syscall"
	"time"

	"hetsim/internal/serve"
)

// sandbox is the fresh temporary root of one run of a measured program.
// HOME, XDG_CACHE_HOME and TMPDIR point inside it, so the default user
// cache directory of hetexp and hetsimd, and anything else they write,
// stays in it.
type sandbox struct{ dir string }

func newSandbox(parent, name string) (*sandbox, error) {
	dir, err := os.MkdirTemp(parent, name+"-")
	if err != nil {
		return nil, err
	}
	for _, sub := range []string{"home", "xdg-cache", "tmp"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &sandbox{dir: dir}, nil
}

func (s *sandbox) path(elem ...string) string {
	return filepath.Join(append([]string{s.dir}, elem...)...)
}

func (s *sandbox) env() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "HOME", "XDG_CACHE_HOME", "TMPDIR":
			continue
		}
		env = append(env, kv)
	}
	return append(env,
		"HOME="+s.path("home"),
		"XDG_CACHE_HOME="+s.path("xdg-cache"),
		"TMPDIR="+s.path("tmp"))
}

func (s *sandbox) remove() error { return os.RemoveAll(s.dir) }

// childResult is one finished child process: wall time from fork to reap,
// its CPU time, and its own resident-set high-water mark.
type childResult struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
	stdout []byte
	stderr []byte
}

// runChild runs bin to completion inside the sandbox.
func runChild(ctx context.Context, sb *sandbox, bin string, args ...string) (childResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = sb.env()
	cmd.Dir = sb.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childResult{}, err
	}
	done := make(chan struct{})
	peak := make(chan int64, 1)
	go func() { peak <- sampleHWM(cmd.Process.Pid, filepath.Base(bin), done) }()
	err := cmd.Wait()
	res := childResult{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	close(done)
	res.maxRSS = <-peak
	res.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if err != nil {
		return res, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(stderr.Bytes()))
	}
	return res, nil
}

// sampleHWM polls the child's VmHWM every 2 ms until done is closed and
// returns the largest value seen, in bytes. The rusage maxrss cannot be
// used: Go starts children with CLONE_VM, so Linux charges the child the
// parent's high-water mark at exec.
func sampleHWM(pid int, name string, done <-chan struct{}) int64 {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var peak int64
	for {
		if b, err := readHWM(pid, name); err == nil && b > peak {
			peak = b
		}
		select {
		case <-done:
			return peak
		case <-tick.C:
		}
	}
}

// readHWM returns the VmHWM of process pid, in bytes, if it is still the
// program name (a reaped pid may be reused) and still has an address
// space (a zombie has none).
func readHWM(pid int, name string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	if len(name) > 15 {
		name = name[:15] // the kernel truncates the command name
	}
	var hwm int64 = -1
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 2 && f[0] == "Name:" && f[1] != name:
			return 0, fmt.Errorf("pid %d is now %s", pid, f[1])
		case len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB":
			if hwm, err = strconv.ParseInt(f[1], 10, 64); err != nil {
				return 0, err
			}
		}
	}
	if hwm < 0 {
		return 0, fmt.Errorf("no VmHWM for pid %d", pid)
	}
	return hwm * 1024, nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// server is one running hetsimd process on an ephemeral loopback port.
type server struct {
	cmd   *exec.Cmd
	url   string
	ready time.Duration // launch to the first 200 on /readyz
	done  chan struct{} // closed once the process is reaped
	err   error         // Wait's result, valid after done
}

// startServer launches hetsimd with two workers on cacheDir and waits for
// readiness. The port is picked free just before the launch; if another
// process takes it first, hetsimd exits and the launch is retried.
func startServer(ctx context.Context, sb *sandbox, bin, cacheDir string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s, err := launchServer(ctx, sb, bin, cacheDir, port)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func launchServer(ctx context.Context, sb *sandbox, bin, cacheDir string, port int) (*server, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-j", "2", "-cache-dir", cacheDir)
	cmd.Env = sb.env()
	cmd.Dir = sb.dir
	f, err := os.Create(sb.path("hetsimd.log"))
	if err != nil {
		return nil, err
	}
	defer f.Close() // the child holds its own descriptor
	cmd.Stdout, cmd.Stderr = f, f
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("hetsimd exited before ready: %v", s.err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hetsimd not ready after 30s")
		}
	}
}

// stop drains the server with SIGTERM and reaps it; a server that does not
// exit within 30 s is killed. It returns the exit error, so a drain that
// did not end cleanly is reported.
func (s *server) stop() error {
	select {
	case <-s.done:
		return s.err
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is caught by done
	select {
	case <-s.done:
		return s.err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("hetsimd ignored SIGTERM for 30s and was killed")
	}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpu returns the server's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3 of
	// proc(5), so utime (14) and stime (15) sit at offsets 11 and 12.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSS() (int64, error) {
	return readHWM(s.cmd.Process.Pid, filepath.Base(s.cmd.Path))
}

// stats reads the server's /v1/stats counters.
func (s *server) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// newTransport is one closed-loop client's transport: a single keep-alive
// connection.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
}

// countingTransport counts the request and response body bytes that cross
// it.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
