package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	tcptransport "skyway/internal/transport/tcp"
)

// The pr-tcp workload's executor block servers are this same binary,
// re-executed with executorEnvID set: the child joins the cluster through
// the registry, serves blocks, and exits when its stdin reaches EOF. The
// parent holds the write end of every child's stdin, so whichever way the
// parent ends — a clean return, a failed job, a panic, an interrupt, or
// being killed — the pipe closes and the child exits.
const (
	executorEnvID       = "SKYBENCH_EXECUTOR"
	executorEnvRegistry = "SKYBENCH_REGISTRY"

	// announceDeadline bounds how long set-up waits for the executors to
	// announce themselves before the run fails.
	announceDeadline = 10 * time.Second
	// reapDeadline bounds how long stop waits for an executor to exit after
	// its stdin closes before killing it.
	reapDeadline = 5 * time.Second
)

// runExecutorProcess is the child side of the trampoline.
func runExecutorProcess(idStr string) int {
	id, err := strconv.Atoi(idStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skybench executor: bad id %q: %v\n", idStr, err)
		return 1
	}
	ex, err := tcptransport.StartExecutor(id, os.Getenv(executorEnvRegistry), "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "skybench executor %d: %v\n", id, err)
		return 1
	}
	fmt.Printf("executor %d ready on %s\n", id, ex.Addr())
	io.Copy(io.Discard, os.Stdin) // returns at EOF: the parent is done or gone
	ex.Close()
	return 0
}

// executors is a set of running executor processes.
type executors struct {
	procs []*executorProc
}

type executorProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	// ready is closed when the child printed its ready line; exited when
	// it has been reaped by wait.
	ready  chan struct{}
	exited chan struct{}
	err    error // wait's result, valid once exited is closed
}

// spawnExecutors starts n executor processes that announce themselves to
// the registry at regAddr. On error every process already started is
// stopped.
func spawnExecutors(n int, regAddr string) (*executors, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	es := &executors{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			executorEnvID+"="+strconv.Itoa(i),
			executorEnvRegistry+"="+regAddr)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			es.stop()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			es.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			es.stop()
			return nil, fmt.Errorf("spawning executor %d: %w", i, err)
		}
		p := &executorProc{cmd: cmd, stdin: stdin, ready: make(chan struct{}), exited: make(chan struct{})}
		es.procs = append(es.procs, p)
		go p.watch(stdout)
	}
	return es, nil
}

// watch reads the child's stdout until it closes (marking the ready line on
// the way), then reaps the child. Reading to EOF before Wait is what
// exec.Cmd requires of a StdoutPipe reader.
func (p *executorProc) watch(stdout io.Reader) {
	sc := bufio.NewScanner(stdout)
	marked := false
	for sc.Scan() {
		if !marked && strings.Contains(sc.Text(), "ready on") {
			close(p.ready)
			marked = true
		}
	}
	p.err = p.cmd.Wait()
	close(p.exited)
}

// awaitReady waits until every executor printed its ready line, failing as
// soon as one exits or the deadline passes.
func (es *executors) awaitReady(deadline time.Duration) error {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for i, p := range es.procs {
		select {
		case <-p.ready:
		case <-p.exited:
			return fmt.Errorf("executor %d exited before announcing: %v", i, p.err)
		case <-timer.C:
			return fmt.Errorf("executor %d did not announce within %v", i, deadline)
		}
	}
	return nil
}

// alive reports an error naming the first executor that has exited.
func (es *executors) alive() error {
	for i, p := range es.procs {
		select {
		case <-p.exited:
			return fmt.Errorf("executor %d exited: %v", i, p.err)
		default:
		}
	}
	return nil
}

// stop closes every executor's stdin and waits for it to exit, killing any
// that outlives reapDeadline. It returns once every process is reaped.
func (es *executors) stop() error {
	if es == nil {
		return nil
	}
	var errs []error
	for _, p := range es.procs {
		p.stdin.Close()
	}
	for i, p := range es.procs {
		select {
		case <-p.exited:
		case <-time.After(reapDeadline):
			p.cmd.Process.Kill()
			<-p.exited
			errs = append(errs, fmt.Errorf("executor %d ignored stdin EOF and was killed", i))
		}
	}
	es.procs = nil
	return errors.Join(errs...)
}

// peakRSSMB returns the largest peak resident set (VmHWM) among the
// executor processes, in MB.
func (es *executors) peakRSSMB() float64 {
	var peak float64
	for _, p := range es.procs {
		if mb, err := vmHWM(p.cmd.Process.Pid); err == nil && mb > peak {
			peak = mb
		}
	}
	return peak
}

// vmHWM reads a process's peak resident set size from /proc, in MB.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
