package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"adscape/internal/daemon"
)

const (
	// lagLimit is the freshness objective: a window visible later than this
	// after the data that closes it was due counts as a failed operation.
	lagLimit = 100 * time.Millisecond

	// servePoll is the daemon's -poll. Its default of 200ms is how long a
	// drained daemon may take to notice SIGTERM, which on a two-second blast
	// would be a tenth of the measurement in scheduling luck.
	servePoll = 20 * time.Millisecond

	// pacedShare is the part of the measuring time the paced replay gets; the
	// blast runs share the rest. At 12 of 20 s the 15 h capture replays 4500
	// times faster than it was taken and the daemon is a fifth busy.
	pacedShare = 0.6

	sendBuffer    = 64 << 10
	daemonStartup = 10 * time.Second
	daemonDrain   = 60 * time.Second
)

// windowWatcher timestamps window record files as the daemon's atomic rename
// makes them visible, through inotify on the windows directory. A timestamp is
// taken when the reader goroutine gets the event, so it includes how long the
// harness waited for a core.
type windowWatcher struct {
	fd   int
	f    *os.File // fd, registered with the runtime poller
	done chan struct{}

	mu   sync.Mutex
	seen map[string]time.Time
	last time.Time
}

func watchWindows(dir string) (*windowWatcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, fmt.Errorf("inotify: %w", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_MOVED_TO); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("inotify watch on %s: %w", dir, err)
	}
	// A non-blocking descriptor goes through the runtime poller, so a read
	// deadline wakes the reader instead of leaving it parked in read(2).
	w := &windowWatcher{fd: fd, f: os.NewFile(uintptr(fd), "inotify"), done: make(chan struct{}), seen: map[string]time.Time{}}
	go w.loop()
	return w, nil
}

func (w *windowWatcher) loop() {
	defer close(w.done)
	buf := make([]byte, 64<<10)
	for {
		n, err := w.f.Read(buf)
		if err != nil {
			return
		}
		w.record(buf[:n], time.Now())
	}
}

// record notes the files named by the inotify events in buf as visible at now.
func (w *windowWatcher) record(buf []byte, now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for off := 0; off+syscall.SizeofInotifyEvent <= len(buf); {
		nameLen := int(binary.LittleEndian.Uint32(buf[off+12:]))
		name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+nameLen]
		off += syscall.SizeofInotifyEvent + nameLen
		key := string(bytes.TrimRight(name, "\x00"))
		if _, dup := w.seen[key]; !dup {
			w.seen[key] = now
		}
		w.last = now
	}
}

// stop ends the watch and returns when each file was first seen and when the
// last one appeared. The daemon renames its last windows during the drain,
// just before it exits, so the reader may not have got to them yet: once it
// is out of the way, whatever the kernel still queues is read here.
func (w *windowWatcher) stop() (map[string]time.Time, time.Time) {
	defer w.f.Close()
	// A deadline in the past fails the reader's pending or next Read.
	if err := w.f.SetReadDeadline(time.Now()); err != nil {
		w.f.Close() // not in the poller after all: this wakes the reader too
		<-w.done
		return w.seen, w.last
	}
	<-w.done
	buf := make([]byte, 64<<10)
	for {
		n, err := syscall.Read(w.fd, buf)
		if err == syscall.EINTR {
			continue
		}
		if n <= 0 || err != nil { // EAGAIN: the queue is empty
			return w.seen, w.last
		}
		w.record(buf[:n], time.Now())
	}
}

// servePhase is one daemon lifetime: start, feed the whole fixture over the
// socket, drain, SIGTERM, exit.
type servePhase struct {
	Workers int
	Paced   bool
	Proc    *ProcResult
	Wall    time.Duration        // first byte sent to last window file visible
	Files   map[string][]byte    // window records by file name
	Seen    map[string]time.Time // first visibility of each
	Start   time.Time            // first byte sent
	LateMs  []float64            // paced: how late each chunk went out
	SentMB  float64
}

// runServePhase drives one daemon over the fixture. With replay zero it
// blasts: one connection, written as fast as the socket accepts (closed
// loop). Otherwise it paces: each indexed byte range goes out when the
// capture clock, compressed so the whole span takes replay, reaches the range's
// last packet (open loop), whether or not the daemon has kept up.
func runServePhase(tools Tools, fx *Fixture, workers int, stateDir string, replay time.Duration) (*servePhase, error) {
	winDir := windowsDir(stateDir)
	if err := os.MkdirAll(winDir, 0o755); err != nil {
		return nil, err
	}
	watch, err := watchWindows(winDir)
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(stateDir, "sock")
	argv := append([]string{tools.Adtrace, "-serve", "-state-dir", stateDir, "-listen", "unix:" + sock,
		"-window", windowWidth.String(), "-grace", windowGrace.String(), "-poll", servePoll.String(),
		"-workers", strconv.Itoa(workers)}, fx.Generator.worldArgs()...)
	proc, err := startProc(argv...)
	if err != nil {
		watch.stop()
		return nil, err
	}
	ph := &servePhase{Workers: workers, Paced: replay > 0}
	if err := ph.feed(fx, sock, replay); err != nil {
		proc.Kill()
		watch.stop()
		return nil, fmt.Errorf("feeding the daemon: %w (stderr: %s)", err, bytes.TrimSpace(proc.stderr.Bytes()))
	}
	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		proc.Kill()
		watch.stop()
		return nil, err
	}
	exited := make(chan struct{})
	timer := time.AfterFunc(daemonDrain, func() {
		select {
		case <-exited:
		default:
			proc.cmd.Process.Kill()
		}
	})
	ph.Proc, err = proc.Wait()
	close(exited)
	timer.Stop()
	var last time.Time
	ph.Seen, last = watch.stop()
	if err != nil {
		return nil, err
	}
	if last.IsZero() {
		return nil, fmt.Errorf("no window file became visible in %s (daemon exited %d: %s)", winDir, ph.Proc.ExitCode, bytes.TrimSpace(ph.Proc.Stderr))
	}
	ph.Wall = last.Sub(ph.Start)
	ph.Files, err = readWindows(winDir)
	return ph, err
}

// readWindows loads the window record files a daemon left in winDir.
func readWindows(winDir string) (map[string][]byte, error) {
	files := map[string][]byte{}
	entries, err := os.ReadDir(winDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(winDir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = data
	}
	return files, nil
}

// feed connects once the daemon listens, sends the fixture, and returns when
// the daemon has consumed the stream: it closes its end only after reading
// ours to EOF, and a SIGTERM before that would drop what the socket still
// buffers.
func (ph *servePhase) feed(fx *Fixture, sock string, replay time.Duration) error {
	var conn *net.UnixConn
	for deadline := time.Now().Add(daemonStartup); ; time.Sleep(2 * time.Millisecond) {
		c, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: sock, Net: "unix"})
		if err == nil {
			conn = c
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not listening on %s: %w", sock, err)
		}
	}
	defer conn.Close()
	f, err := os.Open(fx.Path)
	if err != nil {
		return err
	}
	defer f.Close()

	buf := make([]byte, sendBuffer)
	ph.Start = time.Now()
	if replay == 0 {
		// The reader is wrapped so io.CopyBuffer really goes through buf: a
		// bare *os.File would be spliced into the socket by the kernel, which
		// no capture device feeding a collector does.
		if _, err := io.CopyBuffer(conn, struct{ io.Reader }{io.LimitReader(f, fx.Bytes)}, buf); err != nil {
			return err
		}
	} else {
		compress := float64(replay) / float64(fx.LastNs-fx.FirstNs)
		var off int64
		for _, c := range fx.Index {
			due := ph.Start.Add(time.Duration(float64(c.DueNs-fx.FirstNs) * compress))
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			ph.LateMs = append(ph.LateMs, float64(time.Since(due))/1e6)
			if _, err := io.CopyBuffer(conn, struct{ io.Reader }{io.NewSectionReader(f, off, c.End-off)}, buf); err != nil {
				return err
			}
			off = c.End
		}
	}
	ph.SentMB = float64(fx.Bytes) / 1e6
	if err := conn.CloseWrite(); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(daemonDrain))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		return fmt.Errorf("waiting for the daemon to finish the stream: %w", err)
	}
	return nil
}

// windowNames lists the record files the fixture must produce: one per
// window from the first packet's to the last packet's, empty ones included.
func windowNames(fx *Fixture) []string {
	w := windowWidth.Nanoseconds()
	var names []string
	for k := fx.FirstNs / w; k <= fx.LastNs/w; k++ {
		names = append(names, daemon.WindowFileName(k))
	}
	return names
}

// windowLags returns, for every window the watermark closes (all but the
// last few, which the drain closes), the time from when the byte range that
// closes it was due to when its file became visible.
func windowLags(fx *Fixture, ph *servePhase, replay time.Duration) (lagsMs []float64) {
	w, grace := windowWidth.Nanoseconds(), windowGrace.Nanoseconds()
	compress := float64(replay) / float64(fx.LastNs-fx.FirstNs)
	c := 0
	for k := fx.FirstNs / w; k <= fx.LastNs/w; k++ {
		closeAt := (k+1)*w + grace
		for c < len(fx.Index) && fx.Index[c].DueNs < closeAt {
			c++
		}
		if c == len(fx.Index) {
			break // closed by the drain, not by data
		}
		seen, ok := ph.Seen[daemon.WindowFileName(k)]
		if !ok {
			continue // counted as a failed operation by checkServePhase
		}
		due := ph.Start.Add(time.Duration(float64(fx.Index[c].DueNs-fx.FirstNs) * compress))
		lagsMs = append(lagsMs, float64(seen.Sub(due))/1e6)
	}
	return lagsMs
}

// checkServePhase counts one phase's operations: one per expected window,
// failed when the file is missing or differs from the reference phase's. The
// reference is an earlier phase at the same -workers: which window a late
// record lands in depends on when its shard's packet clock evicts the idle
// flow, and that legitimately moves with the worker count (DESIGN.md §8).
func checkServePhase(o *Outcome, fx *Fixture, ph *servePhase, reference map[string][]byte) {
	what := fmt.Sprintf("blast -workers %d", ph.Workers)
	if ph.Paced {
		what = "paced replay"
	}
	if ph.Proc.ExitCode != 0 {
		n := len(windowNames(fx))
		o.Attempted += n
		o.fail(n, "%s: daemon exited %d: %s", what, ph.Proc.ExitCode, bytes.TrimSpace(ph.Proc.Stderr))
		return
	}
	checkWindows(o, fx, what, ph.Files, reference)
}

// checkWindows holds one daemon's window files to the manifest and, when there
// is one, to a reference set.
func checkWindows(o *Outcome, fx *Fixture, what string, files, reference map[string][]byte) {
	names := windowNames(fx)
	o.Attempted += len(names)
	if len(files) > len(names) {
		o.fail(len(files)-len(names), "%s: %d window files, %d expected", what, len(files), len(names))
	}
	for _, name := range names {
		data, ok := files[name]
		switch {
		case !ok:
			o.fail(1, "%s: %s missing", what, name)
		case reference != nil && !bytes.Equal(data, reference[name]):
			o.fail(1, "%s: %s differs from the first phase's at that worker count", what, name)
		}
	}
}

// runPaced runs the open-loop phase and folds it into the outcome.
func runPaced(o *Outcome, tools Tools, fx *Fixture, W int, dir string, replay time.Duration, reference map[string][]byte) (*servePhase, []float64, error) {
	ph, err := runServePhase(tools, fx, W, dir, replay)
	if err != nil {
		return nil, nil, err
	}
	checkServePhase(o, fx, ph, reference)
	lags := windowLags(fx, ph, replay)
	for _, l := range lags {
		if l > float64(lagLimit)/1e6 {
			o.Late++
			o.fail(1, "paced replay: a window became visible %.0f ms after its data was due (limit %v)", l, lagLimit)
		}
	}
	return ph, lags, nil
}

// runServe measures serve-live untraced: blast phases alternating -workers W
// and -workers 1 for capacity (W first, so it gets the extra one when an odd
// number fit), then one paced replay for freshness, then one in-process daemon
// replay for the allocation count.
func runServe(tools Tools, fx *Fixture, W int, workDir string, seconds float64) (*Outcome, error) {
	o := newOutcome()
	replay := secondsToDuration(pacedShare * seconds)
	blastUntil := time.Now().Add(secondsToDuration((1 - pacedShare) * seconds))
	var wallW, wall1, rssW []float64
	reference := map[int]map[string][]byte{} // by worker count
	var phase time.Duration                  // how long one blast takes; a further one must fit
	for i := 0; len(wallW) == 0 || len(wall1) == 0 || time.Now().Add(phase).Before(blastUntil); i++ {
		workers := W
		if i%2 == 1 {
			workers = 1
		}
		phaseStart := time.Now()
		ph, err := runServePhase(tools, fx, workers, filepath.Join(workDir, fmt.Sprintf("blast%d-w%d", i, workers)), 0)
		if err != nil {
			return nil, err
		}
		checkServePhase(o, fx, ph, reference[workers])
		if reference[workers] == nil && ph.Proc.ExitCode == 0 {
			reference[workers] = ph.Files
		}
		if i%2 == 0 {
			wallW = append(wallW, ph.Wall.Seconds())
			rssW = append(rssW, ph.Proc.MaxRSSMB)
		} else {
			wall1 = append(wall1, ph.Wall.Seconds())
		}
		phase = time.Since(phaseStart)
	}
	paced, lags, err := runPaced(o, tools, fx, W, filepath.Join(workDir, "paced"), replay, reference[W])
	if err != nil {
		return nil, err
	}
	if len(lags) == 0 {
		return nil, errors.New("paced replay closed no window before the drain; the fixture is too short for serve-live")
	}
	rssW = append(rssW, paced.Proc.MaxRSSMB)

	world, err := newWorld(fx.Generator)
	if err != nil {
		return nil, err
	}
	rep, err := replayDaemon(fx, world, W, filepath.Join(workDir, "inproc"), nil)
	if err != nil {
		return nil, err
	}
	// As in runBatch: the allocation count is the daemon's only if the replay
	// is the daemon's configuration, and then it writes the same window files.
	inproc, err := readWindows(windowsDir(filepath.Join(workDir, "inproc")))
	if err != nil {
		return nil, err
	}
	checkWindows(o, fx, "in-process daemon", inproc, reference[W])
	if rep.Records != fx.HTTPTx+fx.TLSFlows {
		o.fail(1, "in-process daemon produced %d records, manifest says %d", rep.Records, fx.HTTPTx+fx.TLSFlows)
	}

	wall := median(wallW)
	o.set("wall_s", wall, len(wallW))
	o.set("wall_w1_s", median(wall1), len(wall1))
	o.set("wire_mb_s", float64(fx.Bytes)/1e6/wall, len(wallW))
	o.set("serve_capacity_x", fx.SpanS/wall, len(wallW))
	o.set("cpu_s", paced.Proc.CPU.Seconds(), 1)
	o.set("max_rss_mb", median(rssW), len(rssW))
	o.set("allocs_per_tx", float64(rep.Mallocs)/float64(rep.Records), 1)
	o.set("window_lag_p50_ms", median(lags), len(lags))
	o.set("window_lag_p98_ms", percentile(lags, highestPercentile(len(lags), 98)), len(lags))
	return o, nil
}
