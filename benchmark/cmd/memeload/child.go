//go:build linux

package main

import (
	"bytes"
	"encoding/json"
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

	"github.com/memes-pipeline/memes/benchmark/loadgen"
)

// modulePath is the module the benchmark belongs to; findRoot refuses to run
// anywhere else, so the command fails fast in a directory that holds only
// the benchmark's own files.
const modulePath = "module github.com/memes-pipeline/memes"

// findRoot locates the repository root: the nearest ancestor of the working
// directory whose go.mod declares this module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(data)), modulePath) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("memeload: no go.mod of " + modulePath + " above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles the real cmd/memeserve into bin and returns its path.
func buildServer(root, bin string) (string, error) {
	out := filepath.Join(bin, "memeserve")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/memeserve")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("memeload: go build ./cmd/memeserve: %v\n%s", err, msg)
	}
	return out, nil
}

// child is one memeserve child process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan struct{} // closed once the child has been reaped
}

// children tracks every live child so a fatal error anywhere can stop them
// before the benchmark exits.
var children = map[*child]bool{}

// startServer boots bin with the given flags plus a free loopback -addr and
// returns once GET /v1/readyz answers 200.
func startServer(bin, logPath string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Safety net only: stop() is the normal path. If the benchmark dies
	// without running it, the kernel takes the child down too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	exited := make(chan struct{})
	s := &child{cmd: cmd, addr: addr, log: logFile, exited: exited}
	children[s] = true
	//memes:goroutine reaps the child; stop and kill wait on the channel it closes
	go func() { cmd.Wait(); close(exited) }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			s.forget()
			msg, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("memeload: memeserve exited during boot:\n%s", msg)
		default:
		}
		if status, _, err := get(addr, "/v1/readyz"); err == nil && status == 200 {
			return s, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, errors.New("memeload: memeserve not ready after 60s")
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop sends SIGTERM, waits for the drained exit and returns how long the
// drain took. A child that ignores SIGTERM for 30s is killed.
func (s *child) stop() (time.Duration, error) {
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return 0, errors.New("memeload: memeserve did not drain within 30s")
	}
	s.forget()
	if code := s.cmd.ProcessState.ExitCode(); code != 0 {
		return 0, fmt.Errorf("memeload: memeserve exited %d after SIGTERM", code)
	}
	return time.Since(start), nil
}

func (s *child) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.forget()
}

func (s *child) forget() {
	s.log.Close()
	delete(children, s)
}

// killChildren stops whatever is still running; called on the fatal path.
func killChildren() {
	for s := range children {
		s.kill()
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux platform Go supports.
const clockTick = 100

// cpuMS is the child's user+system CPU time so far, in milliseconds.
func (s *child) cpuMS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("memeload: short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("memeload: unparseable /proc stat line")
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// rssMB is a process's resident set right now, in MB.
func rssMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, errors.New("memeload: short /proc statm line")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

// get issues one GET on a fresh connection and returns a copy of the body.
func get(addr, path string) (int, []byte, error) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	status, body, err := c.Do(loadgen.EncodeRequest("GET", path, nil), time.Now().Add(30*time.Second))
	return status, append([]byte(nil), body...), err
}

// getJSON decodes a 200 answer of path into v.
func getJSON(addr, path string, v any) error {
	status, body, err := get(addr, path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}
