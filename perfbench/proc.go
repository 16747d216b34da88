package main

import (
	"bufio"
	"fmt"
	"io"
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

// serverProc is a kfserver child process listening on a port the kernel
// chose, so concurrent runs never collide.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	waited chan struct{}
	once   sync.Once
}

// children tracks every live child and scratch directory so an error or
// interrupt can always kill, reap and remove them.
var children struct {
	sync.Mutex
	procs map[*serverProc]struct{}
	dirs  map[string]struct{}
}

func track(p *serverProc) {
	children.Lock()
	defer children.Unlock()
	if children.procs == nil {
		children.procs = make(map[*serverProc]struct{})
	}
	children.procs[p] = struct{}{}
}

// scratchDir creates a fresh directory under the work directory that
// cleanupAll removes.
func scratchDir(o options, name string) (string, error) {
	dir, err := os.MkdirTemp(o.work, name+"-")
	if err != nil {
		return "", err
	}
	children.Lock()
	defer children.Unlock()
	if children.dirs == nil {
		children.dirs = make(map[string]struct{})
	}
	children.dirs[dir] = struct{}{}
	return dir, nil
}

// cleanupAll kills and reaps every child still running and removes every
// scratch directory.
func cleanupAll() {
	children.Lock()
	procs := make([]*serverProc, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	dirs := sortedKeys(children.dirs)
	children.procs, children.dirs = nil, nil
	children.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// startServer launches kfserver on 127.0.0.1:0 with the extra flags and
// waits for its "listening" log line to learn the bound address.
func startServer(o options, args ...string) (*serverProc, error) {
	cmd := exec.Command(filepath.Join(o.bin, "kfserver"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should the benchmark itself be killed, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start kfserver: %w", err)
	}
	p := &serverProc{cmd: cmd, waited: make(chan struct{})}
	track(p)
	addrc := make(chan string, 1)
	go func() {
		// Keep draining stderr for the server's lifetime so its log
		// writes never block.
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found && strings.Contains(line, "msg=listening") {
				if a := logField(line, "addr"); a != "" {
					found = true
					addrc <- a
				}
			}
		}
		// A scanner stops at an over-long line; drain whatever follows.
		io.Copy(io.Discard, stderr)
		close(addrc)
	}()
	go func() {
		cmd.Wait()
		close(p.waited)
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			p.kill()
			return nil, fmt.Errorf("kfserver exited before listening")
		}
		p.addr = a
		return p, nil
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("kfserver did not report a listening address within 30s")
	}
}

// logField extracts key=value from a slog text line.
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// kill SIGKILLs the server and waits until it has been reaped.
func (p *serverProc) kill() {
	p.once.Do(func() {
		p.cmd.Process.Kill()
		<-p.waited
		children.Lock()
		delete(children.procs, p)
		children.Unlock()
	})
}

// cpu reads the server's user+system CPU time from /proc/<pid>/stat.
func (p *serverProc) cpu() (time.Duration, error) {
	return procCPU(p.cmd.Process.Pid)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for every architecture it exports to user space.
const clockTick = 100

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSSMB reads the server's VmHWM from /proc/<pid>/status.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// runChild runs a command to completion and returns its standard output,
// wall time, user+system CPU time and peak resident set.
func runChild(name string, args ...string) (out []byte, wall, cpu time.Duration, maxRSSMB float64, err error) {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err = cmd.Output()
	wall = time.Since(start)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("%s %s: %w", filepath.Base(name), strings.Join(args, " "), err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, 0, 0, fmt.Errorf("no rusage for %s", name)
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return out, wall, cpu, float64(ru.Maxrss) / 1024, nil
}

// httpMetrics fetches /metrics from the server's HTTP listener. kfserver
// logs the -http address as given, so with port 0 the bound port is
// found as the process's other listening socket.
func (p *serverProc) httpMetrics() (string, error) {
	var port int
	for deadline := time.Now().Add(10 * time.Second); ; {
		ports, err := listenPorts(p.cmd.Process.Pid)
		if err != nil {
			return "", err
		}
		for _, pt := range ports {
			if !strings.HasSuffix(p.addr, ":"+strconv.Itoa(pt)) {
				port = pt
			}
		}
		if port != 0 {
			break
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("kfserver opened no HTTP listener")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return string(b), nil
}

// listenPorts lists the TCP ports pid listens on: its socket inodes
// from /proc/<pid>/fd matched against the LISTEN rows of
// /proc/<pid>/net/tcp{,6}.
func listenPorts(pid int) ([]int, error) {
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return nil, err
	}
	inodes := make(map[string]bool)
	for _, fd := range fds {
		l, err := os.Readlink(fmt.Sprintf("/proc/%d/fd/%s", pid, fd.Name()))
		if err == nil && strings.HasPrefix(l, "socket:[") {
			inodes[strings.TrimSuffix(strings.TrimPrefix(l, "socket:["), "]")] = true
		}
	}
	var ports []int
	for _, f := range []string{"tcp", "tcp6"} {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/net/%s", pid, f))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			fs := strings.Fields(line)
			const listen = "0A"
			if len(fs) < 10 || fs[3] != listen || !inodes[fs[9]] {
				continue
			}
			local := fs[1]
			port, err := strconv.ParseInt(local[strings.LastIndexByte(local, ':')+1:], 16, 32)
			if err == nil {
				ports = append(ports, int(port))
			}
		}
	}
	return ports, nil
}
