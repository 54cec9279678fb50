package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adscape/internal/abp"
	"adscape/internal/daemon"
	"adscape/internal/dnssim"
	"adscape/internal/report"
	"adscape/internal/runz"
	"adscape/internal/webgen"
	"adscape/internal/wire"
)

// adtrace's flag defaults, for the in-process replays of its call sequence.
const (
	adtraceThreshold       = 300
	adtraceCheckpointEvery = 500000
	adtraceRestartBudget   = 2
	adtraceStallTimeout    = time.Minute
	adtraceIdleHorizon     = time.Hour
)

// newWorld rebuilds the synthetic Web the fixture was simulated in — what
// adtrace builds from worldArgs. The benchmark seed (g.Seed) is not part of
// it: it only rekeys the trace.
func newWorld(g Generator) (*webgen.World, error) {
	opt := webgen.DefaultOptions()
	opt.NumSites, opt.Seed, opt.HTTPSShare = g.Sites, g.WorldSeed, g.HTTPSShare
	return webgen.NewWorld(opt)
}

// openTrace opens the fixture the way cmd/adtrace does: lenient reader over
// the file.
func openTrace(path string) (*os.File, *wire.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := wire.NewReaderOptions(f, wire.ReaderOptions{Lenient: true})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, r, nil
}

func batchOptions(workers int) runz.Options {
	return runz.Options{
		Workers:         workers,
		Limits:          adtraceLimits(),
		CheckpointEvery: adtraceCheckpointEvery,
		StallTimeout:    adtraceStallTimeout,
		RestartBudget:   adtraceRestartBudget,
	}
}

func reportData(res *runz.Result, rs wire.ReaderStats) report.Data {
	d := report.Data{
		Workers: res.Workers, Stats: res.Stats, Reader: rs, Table: res.Table,
		Restarts: res.Restarts, LostFlows: res.LostFlows,
		Transactions: res.Transactions, TLSFlows: res.TLSFlows,
	}
	for _, s := range res.Shards {
		d.Shards = append(d.Shards, report.Shard{Shard: s.Shard, Packets: s.Packets, Stats: s.Stats, Table: s.Table})
	}
	return d
}

func reportOptions(workers int) report.Options {
	return report.Options{Workers: workers, Users: true, Threshold: adtraceThreshold,
		VerdictCache: abp.DefaultVerdictCacheEntries}
}

// Replay is what one in-process pass over a fixture produced.
type Replay struct {
	Records int    // HTTP transactions + TLS flows
	Mallocs uint64 // heap allocations from opening the trace to the end
	Elapsed time.Duration
	Run     *runz.Result
	Daemon  *daemon.Result
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayBatch runs cmd/adtrace's batch call sequence in this process:
// wire.NewReaderOptions, runz.Run, report.Print to out — what adtrace writes
// to its stdout. With a tracer each call is a span; without one the same code
// runs unobserved.
func replayBatch(fx *Fixture, world *webgen.World, workers int, tr *Tracer, out io.Writer) (*Replay, error) {
	runtime.GC()
	rep := &Replay{}
	var err error
	before, start := mallocs(), time.Now()
	var f *os.File
	var r *wire.Reader
	tr.Do("wire.open", func() { f, r, err = openTrace(fx.Path) })
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr.Do("runz.run", func() { rep.Run, err = runz.Run(r, batchOptions(workers)) })
	if rep.Run == nil || rep.Run.Outcome != runz.OutcomeCompleted {
		return nil, fmt.Errorf("in-process run over %s did not complete: %v", fx.Path, err)
	}
	tr.Do("report.print", func() {
		err = report.Print(out, world, reportData(rep.Run, r.Stats()), reportOptions(workers))
	})
	if err != nil {
		return nil, err
	}
	rep.Elapsed, rep.Mallocs = time.Since(start), mallocs()-before
	rep.Records = rep.Run.Stats.HTTPTransactions + rep.Run.Stats.TLSFlows
	return rep, nil
}

// daemonConfig mirrors cmd/adtrace -serve with the serve-live flags.
func daemonConfig(world *webgen.World, dir string, workers int) daemon.Config {
	return daemon.Config{
		Dir:             dir,
		Window:          windowWidth,
		Grace:           windowGrace,
		IdleHorizon:     adtraceIdleHorizon,
		Engine:          world.Bundle.ClassifierEngine(),
		ABPServerIPs:    dnssim.DiscoverAll(world.DNSZone(), webgen.ABPListHost, 3, 4),
		Workers:         workers,
		Limits:          adtraceLimits(),
		CheckpointEvery: adtraceCheckpointEvery,
		StallTimeout:    adtraceStallTimeout,
		RestartBudget:   adtraceRestartBudget,
	}
}

// replayDaemon runs the serve path in this process over the whole fixture:
// daemon.Run fed by a file reader, which ends at EOF the way a drained socket
// source does. stateDir must not exist yet (a checkpoint there would resume).
func replayDaemon(fx *Fixture, world *webgen.World, workers int, stateDir string, tr *Tracer) (*Replay, error) {
	runtime.GC()
	rep := &Replay{}
	var err error
	before, start := mallocs(), time.Now()
	f, r, err := openTrace(fx.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr.Do("daemon.run", func() { rep.Daemon, err = daemon.Run(r, daemonConfig(world, stateDir, workers)) })
	if rep.Daemon == nil || rep.Daemon.Run == nil || rep.Daemon.Run.Outcome != runz.OutcomeCompleted {
		return nil, fmt.Errorf("in-process daemon over %s did not complete: %v", fx.Path, err)
	}
	rep.Elapsed, rep.Mallocs = time.Since(start), mallocs()-before
	rep.Run = rep.Daemon.Run
	rep.Records = rep.Run.Stats.HTTPTransactions + rep.Run.Stats.TLSFlows
	return rep, nil
}

// dirSize sums the regular files directly in dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

func windowsDir(stateDir string) string { return filepath.Join(stateDir, daemon.WindowsSubdir) }
