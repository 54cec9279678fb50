package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"time"
)

// Outcome is the untraced result of one workload: raw metric values, how many
// measurements stand behind each, and the operation count.
type Outcome struct {
	Values    map[string]float64
	N         map[string]int
	Attempted int
	Failed    int
	// Late counts the failed operations that are windows over the lag limit:
	// the one failure that depends on how busy the machine is.
	Late  int
	Notes []string // why operations failed, for the operator
}

func newOutcome() *Outcome {
	return &Outcome{Values: map[string]float64{}, N: map[string]int{}}
}

func (o *Outcome) set(name string, v float64, n int) { o.Values[name], o.N[name] = v, n }

func (o *Outcome) fail(ops int, format string, args ...any) {
	o.Failed += ops
	if len(o.Notes) < 20 {
		o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
	}
}

var (
	shardLine   = regexp.MustCompile(`(?m)^  shard .*\n`)
	overShards  = regexp.MustCompile(`over \d+ shards`)
	idleEvicted = regexp.MustCompile(`(?m)^(  evicted flows: +)\d+ idle`)
)

// normalizeReport removes what in adtrace's stdout legitimately depends on the
// worker count, after which it must be byte-identical at any -workers value:
// the per-shard breakdown lines, the "merged over N shards" header, and the
// idle-eviction count. The last is bookkeeping, not a result: each shard
// evicts on the clock of its own packets, so whether a flow that went quiet
// near the end of a sparse trace is closed as idle or by the final flush
// depends on which flows share its shard (DESIGN.md §8). The records it
// produces are the same either way, and those are compared.
func normalizeReport(out []byte) []byte {
	out = shardLine.ReplaceAll(out, nil)
	out = overShards.ReplaceAll(out, []byte("over 1 shards"))
	return idleEvicted.ReplaceAll(out, []byte("${1}N idle"))
}

var countLine = regexp.MustCompile(`(?m)^(packets|http transactions|https flows):\s+(\d+)`)

// reportCounts extracts the three record counts at the head of adtrace's
// report; ok is false unless all three lines are there.
func reportCounts(out []byte) (packets, tx, tls int, ok bool) {
	found := map[string]int{}
	for _, m := range countLine.FindAllSubmatch(out, -1) {
		n, err := strconv.Atoi(string(m[2]))
		if err != nil {
			return 0, 0, 0, false
		}
		found[string(m[1])] = n
	}
	return found["packets"], found["http transactions"], found["https flows"], len(found) == 3
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// checkBatchRun counts one adtrace run's operations: one per record the
// manifest expects; failed are the records missing or surplus, or all of them
// when the run exited non-zero or its stdout departs from the reference.
func checkBatchRun(o *Outcome, fx *Fixture, res *ProcResult, workers int, reference []byte) {
	ops := fx.HTTPTx + fx.TLSFlows
	o.Attempted += ops
	if res.ExitCode != 0 {
		o.fail(ops, "adtrace -workers %d exited %d: %s", workers, res.ExitCode, bytes.TrimSpace(res.Stderr))
		return
	}
	if reference != nil && !bytes.Equal(normalizeReport(res.Stdout), reference) {
		o.fail(ops, "adtrace -workers %d stdout differs from the -workers 1 reference", workers)
		return
	}
	pk, tx, tls, ok := reportCounts(res.Stdout)
	if !ok {
		o.fail(ops, "adtrace -workers %d report lacks its count lines", workers)
		return
	}
	if pk != fx.Packets {
		o.fail(ops, "adtrace -workers %d read %d packets, fixture has %d", workers, pk, fx.Packets)
		return
	}
	if d := absDiff(tx, fx.HTTPTx) + absDiff(tls, fx.TLSFlows); d > 0 {
		o.fail(d, "adtrace -workers %d reported %d tx / %d tls flows, manifest says %d / %d",
			workers, tx, tls, fx.HTTPTx, fx.TLSFlows)
	}
}

// runBatch measures a batch workload untraced: adtrace subprocesses over the
// fixture file, alternating -workers W and -workers 1 until the time is up,
// then one in-process replay for the allocation count.
func runBatch(tools Tools, fx *Fixture, W int, seconds float64) (*Outcome, error) {
	o := newOutcome()
	argv := func(workers int) []string {
		return append([]string{tools.Adtrace, "-i", fx.Path, "-users", "-workers", strconv.Itoa(workers)},
			fx.Generator.worldArgs()...)
	}
	var wallW, wall1, cpuW, rssW, tailW []float64
	var reference, stdoutW []byte
	deadline := time.Now().Add(secondsToDuration(seconds))
	var pair time.Duration // how long one 1+W pair takes; a further pair must fit
	for len(wallW) < 1 || time.Now().Add(pair).Before(deadline) {
		pairStart := time.Now()
		// -workers 1 first: its stdout is the reference the W run is held to.
		r1, err := runProc(argv(1)...)
		if err != nil {
			return nil, err
		}
		checkBatchRun(o, fx, r1, 1, reference)
		if reference == nil && r1.ExitCode == 0 {
			reference = normalizeReport(r1.Stdout)
		}
		wall1 = append(wall1, r1.Wall.Seconds())

		rw, err := runProc(argv(W)...)
		if err != nil {
			return nil, err
		}
		checkBatchRun(o, fx, rw, W, reference)
		stdoutW = rw.Stdout
		wallW = append(wallW, rw.Wall.Seconds())
		cpuW = append(cpuW, rw.CPU.Seconds())
		rssW = append(rssW, rw.MaxRSSMB)
		tailW = append(tailW, rw.Tail.Seconds()*1000)
		pair = time.Since(pairStart)
	}

	world, err := newWorld(fx.Generator)
	if err != nil {
		return nil, err
	}
	// The replay counts allocations for adtrace only if it is adtrace's call
	// sequence — same world, limits and options — and then its report is
	// adtrace's stdout, byte for byte. The buffer is sized beforehand so that
	// it adds no allocation of its own.
	var report bytes.Buffer
	report.Grow(2 * len(stdoutW))
	rep, err := replayBatch(fx, world, W, nil, &report)
	if err != nil {
		return nil, err
	}
	ops := fx.HTTPTx + fx.TLSFlows
	o.Attempted += ops
	if rep.Records != ops {
		o.fail(absDiff(rep.Records, ops), "in-process replay produced %d records, manifest says %d", rep.Records, ops)
	} else if !bytes.Equal(report.Bytes(), stdoutW) {
		o.fail(ops, "in-process replay's report differs from the stdout of adtrace -workers %d", W)
	}

	wall := median(wallW)
	o.set("wall_s", wall, len(wallW))
	o.set("wall_w1_s", median(wall1), len(wall1))
	o.set("wire_mb_s", float64(fx.Bytes)/1e6/wall, len(wallW))
	o.set("cpu_s", median(cpuW), len(cpuW))
	o.set("max_rss_mb", median(rssW), len(rssW))
	o.set("allocs_per_tx", float64(rep.Mallocs)/float64(rep.Records), 1)
	// A batch run is one unbounded window: its lag is the time from the last
	// packet consumed (adtrace's first stdout line) to the report's end.
	o.set("window_lag_p50_ms", median(tailW), len(tailW))
	o.set("window_lag_p98_ms", percentile(tailW, highestPercentile(len(tailW), 98)), len(tailW))
	o.set("serve_capacity_x", fx.SpanS/wall, len(wallW))
	return o, nil
}
