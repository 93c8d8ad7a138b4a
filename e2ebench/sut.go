package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// distSecret is the cluster secret shared by stapd and its stapnodes.
const distSecret = "e2ebench"

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// proc is one SUT process. A reader goroutine drains its stderr into a
// log file, reaps the process when the stream ends and closes done.
type proc struct {
	name  string
	cmd   *exec.Cmd
	ready chan struct{} // closed when the ready marker appears on stderr
	done  chan struct{} // closed once the process has been reaped
	err   error         // exit error, valid after done
}

// start launches bin with args in its own process group, logging stderr
// to logPath, and closes ready when a stderr line contains marker.
func start(name, bin, logPath, marker string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("%s log: %w", name, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("%s stderr: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, ready: make(chan struct{}), done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		seen := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !seen && strings.Contains(line, marker) {
				seen = true
				close(p.ready)
			}
		}
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM and waits up to timeout for a clean exit: status 0
// and no process left in its group.
func (p *proc) stop(timeout time.Duration) error {
	if p.exited() {
		return fmt.Errorf("%s exited before shutdown: %v", p.name, p.err)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s did not exit within %v of SIGTERM", p.name, timeout)
	}
	if p.err != nil {
		return fmt.Errorf("%s exit: %v", p.name, p.err)
	}
	if err := syscall.Kill(-p.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		return fmt.Errorf("%s left processes in its group", p.name)
	}
	return nil
}

// kill ends the process group at once and waits for the reap.
func (p *proc) kill() {
	if !p.exited() {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-p.done
}

// sut is one running instance of the system under test: stapd and, for
// the split workload, its two stapnodes.
type sut struct {
	addr  string
	stapd *proc
	nodes []*proc
}

// procs lists stapd first, then the nodes.
func (s *sut) procs() []*proc { return append([]*proc{s.stapd}, s.nodes...) }

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// launchSUT starts the workload's processes from binDir: the stapnodes
// first (stapd connects to them while it boots), then stapd with the
// workload seed. It returns once stapd has been started; the caller
// times readiness by the first OK reply.
func launchSUT(w workload, seed int64, binDir, logDir string) (*sut, error) {
	s := &sut{}
	args := []string{"-metrics=", "-size", w.size, "-seed", strconv.FormatInt(seed, 10),
		"-nodes", nodes, "-replicas", strconv.Itoa(w.replicas), "-drain", "30s"}
	if w.split {
		var addrs []string
		for i := 1; i <= 2; i++ {
			addr, err := freePort()
			if err != nil {
				s.kill()
				return nil, err
			}
			name := fmt.Sprintf("stapnode%d", i)
			p, err := start(name, filepath.Join(binDir, "stapnode"), filepath.Join(logDir, name+".log"),
				"listening on", "-listen", addr, "-secret", distSecret)
			if err != nil {
				s.kill()
				return nil, err
			}
			s.nodes = append(s.nodes, p)
			addrs = append(addrs, addr)
		}
		for _, p := range s.nodes {
			select {
			case <-p.ready:
			case <-p.done:
				s.kill()
				return nil, fmt.Errorf("%s exited during boot: %v", p.name, p.err)
			case <-time.After(30 * time.Second):
				s.kill()
				return nil, fmt.Errorf("%s not listening after 30s", p.name)
			}
		}
		args = append(args, "-distnodes", strings.Join(addrs, ","), "-distsecret", distSecret,
			"-placement", splitPlacement)
	}
	addr, err := freePort()
	if err != nil {
		s.kill()
		return nil, err
	}
	s.addr = addr
	args = append(args, "-listen", addr)
	s.stapd, err = start("stapd", filepath.Join(binDir, "stapd"), filepath.Join(logDir, "stapd.log"),
		"scene ", args...)
	if err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// crashed names the first SUT process that has already exited.
func (s *sut) crashed() error {
	for _, p := range s.procs() {
		if p != nil && p.exited() {
			return fmt.Errorf("%s exited: %v", p.name, p.err)
		}
	}
	return nil
}

// stop shuts the SUT down with SIGTERM, stapd first so it closes its
// dist sessions before the nodes go, and requires every process to exit
// cleanly.
func (s *sut) stop() error {
	var errs []error
	for _, p := range s.procs() {
		if err := p.stop(60 * time.Second); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// kill ends every started process at once; it is the error-path cleanup.
func (s *sut) kill() {
	for _, p := range s.procs() {
		if p != nil {
			p.kill()
		}
	}
}

// cpuMs sums user+system CPU time over the SUT processes.
func (s *sut) cpuMs() (float64, error) {
	var ticks int64
	for _, p := range s.procs() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", p.name, err)
		}
		// Fields after the parenthesised command name: state is field 3,
		// utime field 14 and stime field 15.
		rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("%s cpu: short stat line", p.name)
		}
		for _, s := range f[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s cpu: %w", p.name, err)
			}
			ticks += v
		}
	}
	return float64(ticks) * 1000 / clockTicks, nil
}

// peakRSSMB sums VmHWM, the resident-set high-water mark, over the SUT
// processes, in MiB.
func (s *sut) peakRSSMB() (float64, error) {
	var kb int64
	for _, p := range s.procs() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", p.name, err)
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				v, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("%s rss: %w", p.name, err)
				}
				kb += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("%s rss: no VmHWM", p.name)
		}
	}
	return float64(kb) / 1024, nil
}
