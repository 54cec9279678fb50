package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Proc is a child process under measurement.
//
// Peak memory is the child's own VmHWM from /proc/<pid>/status, sampled while
// it runs, not rusage's ru_maxrss: Go starts children with vfork semantics, so
// ru_maxrss starts at the parent's resident size and a harness holding a large
// trace would report its own footprint as the child's. VmHWM belongs to the
// address space exec created. It is monotone, so the last sample before exit
// misses only what the final poll interval allocated.
type Proc struct {
	cmd    *exec.Cmd
	start  time.Time
	stdout stampedBuffer
	stderr bytes.Buffer

	stopPoll chan struct{}
	pollDone chan struct{}
	hwmKB    int64
}

const hwmPollInterval = 5 * time.Millisecond

// stampedBuffer collects a stream and remembers when its first byte arrived.
type stampedBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	first time.Time
}

func (b *stampedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first.IsZero() && len(p) > 0 {
		b.first = time.Now()
	}
	return b.buf.Write(p)
}

// startProc launches argv and begins sampling its memory high-water mark.
func startProc(argv ...string) (*Proc, error) {
	p := &Proc{
		cmd:      exec.Command(argv[0], argv[1:]...),
		stopPoll: make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	p.cmd.Stdout = &p.stdout
	p.cmd.Stderr = &p.stderr
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", argv[0], err)
	}
	go p.pollHWM()
	return p, nil
}

func (p *Proc) pollHWM() {
	defer close(p.pollDone)
	path := "/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status"
	t := time.NewTicker(hwmPollInterval)
	defer t.Stop()
	for {
		if kb, ok := readVmHWM(path); ok {
			p.hwmKB = kb
		}
		select {
		case <-p.stopPoll:
			return
		case <-t.C:
		}
	}
}

// readVmHWM parses the VmHWM line (kB) of a /proc status file. A zombie has
// no Vm lines, which reads as not ok and keeps the previous sample.
func readVmHWM(path string) (int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// ProcResult is what one finished child cost.
type ProcResult struct {
	ExitCode int
	Wall     time.Duration // start to exit
	// Tail is first stdout byte to exit: adtrace prints its first report line
	// when ingest is done, so this is the classify/infer/print tail.
	Tail     time.Duration
	CPU      time.Duration // user+sys
	MaxRSSMB float64       // VmHWM
	Stdout   []byte
	Stderr   []byte
}

// Wait blocks until the child exits and returns its cost. A non-zero exit is
// reported in ExitCode, not as an error; err is for the harness failing.
func (p *Proc) Wait() (*ProcResult, error) {
	err := p.cmd.Wait()
	end := time.Now()
	close(p.stopPoll)
	<-p.pollDone
	res := &ProcResult{
		Wall:     end.Sub(p.start),
		MaxRSSMB: float64(p.hwmKB) / 1024,
		Stdout:   p.stdout.buf.Bytes(),
		Stderr:   p.stderr.Bytes(),
	}
	if !p.stdout.first.IsZero() {
		res.Tail = end.Sub(p.stdout.first)
	}
	if st := p.cmd.ProcessState; st != nil {
		res.ExitCode = st.ExitCode()
		res.CPU = st.UserTime() + st.SystemTime()
	}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return res, fmt.Errorf("waiting for %s: %w", p.cmd.Path, err)
	}
	return res, nil
}

// Kill stops a child the harness no longer wants (error paths) and reaps it.
func (p *Proc) Kill() {
	p.cmd.Process.Kill()
	p.Wait()
}

// runProc runs argv to completion.
func runProc(argv ...string) (*ProcResult, error) {
	p, err := startProc(argv...)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// mustSucceed runs a set-up tool and turns a non-zero exit into an error
// carrying its stderr.
func mustSucceed(argv ...string) (*ProcResult, error) {
	res, err := runProc(argv...)
	if err != nil {
		return nil, err
	}
	if res.ExitCode != 0 {
		return nil, fmt.Errorf("%s exited %d: %s", argv[0], res.ExitCode, bytes.TrimSpace(res.Stderr))
	}
	return res, nil
}

// spreadSubdirs marks dir so that ext4 places every directory created in it in
// a block group picked afresh (the top-level-directory hint, chattr +T), not
// next to its siblings. Without a journal ext4 does not reuse an inode for a
// minute after it was deleted, and steps over such inodes one by one on every
// create. A run whose scratch directory shares a block group with the one the
// previous run has just removed — 5400 window files on serve-live — pays 0.3 ms
// of system time per file it creates: serve-live's timings rose by 15-30% over
// the first three runs of a row, which was most of their run-to-run spread.
// Best effort: other file systems refuse or ignore the flag.
func spreadSubdirs(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	const (
		getFlags = 0x80086601 // FS_IOC_GETFLAGS
		setFlags = 0x40086602 // FS_IOC_SETFLAGS
		topDir   = 0x00020000 // FS_TOPDIR_FL
	)
	var flags int
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= topDir
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags)))
}
