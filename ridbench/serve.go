package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ridserve is one launched ridserve process.
type ridserve struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	exited  chan struct{}
	err     error // set before exited closes
}

// launch starts ridserve on a free loopback port, its output going to
// logPath, and waits until /healthz answers.
func launch(ctx context.Context, bin, logPath string) (*ridserve, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	s := &ridserve{addr: addr, logPath: logPath, exited: make(chan struct{})}
	// No flag but the address: ridserve runs with its default telemetry
	// (flight recorder on, profiler off, no OTLP export) and its default
	// pool, cache and limits.
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stdout = log
	s.cmd.Stderr = log
	// The server must not outlive the benchmark, even when it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ridserve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (s *ridserve) waitReady(ctx context.Context) error {
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := hc.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("ridserve exited during start-up: %v\n%s", s.err, s.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ridserve not ready after 20s\n%s", s.logTail())
		}
	}
}

// stop sends SIGTERM, lets ridserve drain for up to five seconds, then
// kills it, and returns once the process has exited.
func (s *ridserve) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// alive reports an error if the process has exited.
func (s *ridserve) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("ridserve exited: %v\n%s", s.err, s.logTail())
	default:
		return nil
	}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func (s *ridserve) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the process's user+system CPU time.
func (s *ridserve) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// logTail returns the end of ridserve's log, for error reports.
func (s *ridserve) logTail() string {
	data, _ := os.ReadFile(s.logPath)
	return string(data[max(0, len(data)-4096):])
}
