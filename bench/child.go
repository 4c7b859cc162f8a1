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

// buildHosserve compiles cmd/hosserve from the checkout at root into
// binDir and returns the binary's path.
func buildHosserve(ctx context.Context, root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "hosserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/hosserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hosserve: %v\n%s", err, out)
	}
	return bin, nil
}

// servingAddr extracts the listen address from hosserve's
// "serving on <addr>" line; an unspecified host is reached on loopback.
func servingAddr(line string) (string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), "serving on ")
	if !ok {
		return "", false
	}
	host, port, err := net.SplitHostPort(rest)
	if err != nil || port == "" {
		return "", false
	}
	if _, err := strconv.Atoi(port); err != nil {
		return "", false
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port), true
}

// child is one running hosserve process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	done   chan struct{}
	stderr *tail
}

// tail keeps the last few KiB a child wrote, for error messages.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// startChild execs hosserve and waits until /healthz answers 200,
// returning the time from exec to that first healthy answer. The child
// dies with the benchmark (SIGKILL on parent death) if the benchmark
// itself is killed; every other exit path calls kill.
func startChild(ctx context.Context, bin string, args []string, hc *http.Client) (*child, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, done: make(chan struct{}), stderr: &tail{}}
	cmd.Stderr = c.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting hosserve: %w", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			if addr, ok := servingAddr(sc.Text()); ok && !found {
				found = true
				addrCh <- addr
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		close(addrCh)
	}()
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()

	select {
	case addr, ok := <-addrCh:
		if !ok {
			c.kill()
			return nil, 0, fmt.Errorf("hosserve exited before serving: %s", c.stderr)
		}
		c.base = "http://" + addr
	case <-ctx.Done():
		c.kill()
		return nil, 0, ctx.Err()
	}
	for {
		status, _, err := send(ctx, hc, c.base, getRequest("/healthz"), nil)
		if err == nil && status == http.StatusOK {
			return c, time.Since(start), nil
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("hosserve exited before becoming healthy: %s", c.stderr)
		case <-ctx.Done():
			c.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// kill SIGKILLs the child and waits until it has exited. Safe to call
// more than once.
func (c *child) kill() {
	if c == nil {
		return
	}
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// rssPeakMB reads the child's peak resident set (VmHWM) in MiB.
func (c *child) rssPeakMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
}

func vmHWM(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in %s", statusPath)
}
