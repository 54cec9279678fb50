package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"adscape/internal/abp"
	"adscape/internal/analyzer"
	"adscape/internal/core"
	"adscape/internal/dnssim"
	"adscape/internal/inference"
	"adscape/internal/pagemodel"
	"adscape/internal/pipeline"
	"adscape/internal/report"
	"adscape/internal/runz"
	"adscape/internal/urlutil"
	"adscape/internal/webgen"
	"adscape/internal/weblog"
	"adscape/internal/wire"
)

// noopHandler lets a flow table run without an analyzer behind it, so that
// read + flow tracking can be timed on their own.
type noopHandler struct{}

func (noopHandler) FlowEstablished(*wire.Flow)                     {}
func (noopHandler) Data(*wire.Flow, wire.Dir, int64, []byte, bool) {}
func (noopHandler) FlowClosed(*wire.Flow)                          {}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedPass attributes one workload's time to layers. It is one process and
// one goroutine of harness code: every call into a layer's public API is
// wrapped in a span, and a layer that only ever runs inside another (flow
// tracking inside the analyzer, the analyzer inside the pipeline) gets its
// self time from nested runs — the same input through the outer call minus
// through the inner one. Every value is from this pass alone.
func tracedPass(fx *Fixture, W int, workDir string, tr *Tracer) (map[string]float64, error) {
	v := map[string]float64{}
	lim := adtraceLimits()
	var err error
	fail := func(what string, e error) (map[string]float64, error) {
		return nil, fmt.Errorf("traced pass, %s: %w", what, e)
	}
	// withTrace opens the fixture, runs fn over the reader inside a span, and
	// closes it. Opening is inside the span: adtrace pays it too.
	withTrace := func(name string, fn func(r *wire.Reader) error) (Span, error) {
		runtime.GC()
		var ferr error
		s := tr.Do(name, func() {
			f, r, err := openTrace(fx.Path)
			if err != nil {
				ferr = err
				return
			}
			defer f.Close()
			ferr = fn(r)
		})
		return s, ferr
	}
	// nested is withTrace for the runs whose differences are self times: a
	// difference of two single timings can come out negative on a busy
	// machine, so each runs twice and the faster span counts.
	nested := func(name string, fn func(r *wire.Reader) error) (Span, error) {
		a, err := withTrace(name, fn)
		if err != nil {
			return a, err
		}
		b, err := withTrace(name, fn)
		if err == nil && b.Dur() < a.Dur() {
			a = b
		}
		return a, err
	}
	pkts := float64(fx.Packets)

	// Set-up layers, from the manifest.
	v["rbn.simulate_s"], v["wire.sort_s"], v["rbn.pkts"] = fx.SimulateS, fx.SortS, float64(fx.SourcePackets)

	var world *webgen.World
	s := tr.Do("webgen.world", func() { world, err = newWorld(fx.Generator) })
	if err != nil {
		return fail("webgen.NewWorld", err)
	}
	v["webgen.world_s"] = s.Dur().Seconds()

	// wire: read alone, then read + flow table with nothing behind it.
	var rstats wire.ReaderStats
	var readBytes int64
	read, err := nested("wire.read", func(r *wire.Reader) error {
		err := r.ForEach(func(*wire.Packet) error { return nil })
		rstats, readBytes = r.Stats(), r.Offset()
		return err
	})
	if err != nil {
		return fail("wire.Reader", err)
	}
	v["wire.read_s"] = read.Dur().Seconds()
	v["wire.read_ns_per_pkt"] = float64(read.Dur().Nanoseconds()) / pkts
	v["wire.read_allocs_per_pkt"] = float64(read.Mallocs) / pkts
	v["wire.read_mb"] = float64(readBytes) / 1e6
	v["wire.read_resyncs"] = float64(rstats.Resyncs)

	var tstats wire.TableStats
	flow, err := nested("wire.read+flow", func(r *wire.Reader) error {
		ft := wire.NewFlowTableLimits(noopHandler{}, lim.Table)
		err := r.ForEach(func(p *wire.Packet) error { ft.Add(p); return nil })
		ft.Flush()
		tstats = ft.Stats()
		return err
	})
	if err != nil {
		return fail("wire.FlowTable", err)
	}
	v["wire.flow_s"] = (flow.Dur() - read.Dur()).Seconds()
	v["wire.flow_ns_per_pkt"] = float64((flow.Dur() - read.Dur()).Nanoseconds()) / pkts
	v["wire.flow_allocs_per_pkt"] = (float64(flow.Mallocs) - float64(read.Mallocs)) / pkts
	v["wire.flow_evicted_idle"] = float64(tstats.EvictedIdle)
	v["wire.flow_gaps"] = float64(tstats.Gaps)

	// analyzer: the sequential path of AnalyzeTraceLimits, spelled out to keep
	// the analyzer for its intern counters.
	var astats analyzer.Stats
	var hits, misses int64
	an, err := nested("analyzer.analyze", func(r *wire.Reader) error {
		a := analyzer.NewWithLimits(&analyzer.Collector{}, lim)
		err := r.ForEach(func(p *wire.Packet) error { a.Add(p); return nil })
		a.Finish()
		astats = a.Stats()
		hits, misses, _ = a.InternStats()
		return err
	})
	if err != nil {
		return fail("analyzer", err)
	}
	records := float64(astats.HTTPTransactions + astats.TLSFlows)
	v["analyzer.parse_s"] = (an.Dur() - flow.Dur()).Seconds()
	v["analyzer.ns_per_tx"] = ratio(float64((an.Dur() - flow.Dur()).Nanoseconds()), records)
	v["analyzer.allocs_per_tx"] = ratio(float64(an.Mallocs)-float64(flow.Mallocs), records)
	v["analyzer.tx"] = float64(astats.HTTPTransactions)
	v["analyzer.tls_flows"] = float64(astats.TLSFlows)
	v["analyzer.parse_errors"] = float64(astats.ParseErrors)
	v["analyzer.intern_hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	// pipeline: the sharded engine at one worker and at W.
	analyze := func(name string, workers int) (Span, *pipeline.Result, error) {
		var res *pipeline.Result
		s, err := withTrace(name, func(r *wire.Reader) error {
			var err error
			res, err = pipeline.Analyze(r, pipeline.Options{Workers: workers, Limits: lim})
			return err
		})
		return s, res, err
	}
	pa1, _, err := analyze("pipeline.analyze.w1", 1)
	if err != nil {
		return fail("pipeline.Analyze at 1 worker", err)
	}
	paW, pres, err := analyze("pipeline.analyze", W)
	if err != nil {
		return fail("pipeline.Analyze", err)
	}
	v["pipeline.analyze_w1_s"] = pa1.Dur().Seconds()
	v["pipeline.analyze_s"] = paW.Dur().Seconds()
	v["pipeline.speedup_x"] = pa1.Dur().Seconds() / paW.Dur().Seconds()
	maxShard := 0
	for _, sh := range pres.Shards {
		if sh.Packets > maxShard {
			maxShard = sh.Packets
		}
	}
	v["pipeline.shard_skew"] = float64(maxShard) * float64(len(pres.Shards)) / pkts

	// The merge barrier sorts the concatenation of the shards' outputs; the
	// collectors still hold them in shard order.
	var shardTx []*weblog.Transaction
	var shardTLS []*weblog.TLSFlow
	for _, sh := range pres.Shards {
		if col, ok := sh.Sink.(*analyzer.Collector); ok {
			shardTx = append(shardTx, col.Transactions...)
			shardTLS = append(shardTLS, col.Flows...)
		}
	}
	s = tr.Do("weblog.sort", func() {
		weblog.SortTransactions(shardTx)
		weblog.SortTLSFlows(shardTLS)
	})
	v["weblog.sort_s"] = s.Dur().Seconds()
	txs, flows := pres.Transactions, pres.TLSFlows
	ntx := float64(len(txs))

	// abp: compile, then the workload's own requests and SNIs.
	var engine *abp.Engine
	s = tr.Do("abp.compile", func() { engine = world.Bundle.ClassifierEngine() })
	v["abp.compile_s"] = s.Dur().Seconds()
	v["abp.rules"] = float64(engine.NumFilters())

	// pagemodel: per-user builders over the transaction log, no engine.
	pageOpt := pagemodel.DefaultOptions(urlutil.NewNormalizer(engine.RuleTexts()))
	s = tr.Do("pagemodel.build", func() {
		users := map[core.UserKey]*pagemodel.Builder{}
		var order []*pagemodel.Builder
		for _, tx := range txs {
			k := core.UserKey{IP: tx.ClientIP, UserAgent: tx.UserAgent}
			b := users[k]
			if b == nil {
				b = pagemodel.NewBuilder(pageOpt)
				users[k] = b
				order = append(order, b)
			}
			b.Add(tx)
		}
		for _, b := range order {
			b.Resolve()
		}
	})
	v["pagemodel.build_s"] = s.Dur().Seconds()
	v["pagemodel.ns_per_tx"] = ratio(float64(s.Dur().Nanoseconds()), ntx)

	var results []*core.Result
	s = tr.Do("core.classify_all", func() { results = core.NewPipeline(engine).ClassifyAll(txs) })
	v["core.classify_all_s"] = s.Dur().Seconds()

	reqs := make([]abp.Request, len(results))
	for i, r := range results {
		reqs[i] = abp.Request{URL: r.Ann.URL, Class: r.Ann.Class, PageHost: r.Ann.PageHost}
	}
	cached := world.Bundle.ClassifierEngine()
	s = tr.Do("abp.classify", func() {
		for i := range reqs {
			cached.ClassifyCached(&reqs[i])
		}
	})
	v["abp.classify_ns"] = ratio(float64(s.Dur().Nanoseconds()), ntx)
	v["abp.allocs_per_verdict"] = ratio(float64(s.Mallocs), ntx)
	v["abp.cache_hit_ratio"] = cached.VerdictCacheStats().HitRatio()
	uncached := world.Bundle.ClassifierEngine()
	uncached.SetVerdictCacheSize(0)
	s = tr.Do("abp.classify_uncached", func() {
		for i := range reqs {
			uncached.Classify(&reqs[i])
		}
	})
	v["abp.classify_uncached_ns"] = ratio(float64(s.Dur().Nanoseconds()), ntx)
	v["abp.bloom_reject_ratio"] = uncached.BloomStats().RejectRate()
	var snis []string
	for _, f := range flows {
		if f.SNI != "" {
			snis = append(snis, f.SNI)
		}
	}
	s = tr.Do("abp.domain", func() {
		for _, h := range snis {
			cached.ClassifyDomain(h)
		}
	})
	v["abp.domain_ns"] = ratio(float64(s.Dur().Nanoseconds()), float64(len(snis)))

	// The sharded classification stages the report runs.
	var cls *pipeline.ClassifyResult
	s = tr.Do("pipeline.classify", func() {
		cls = pipeline.Classify(core.NewPipeline(world.Bundle.ClassifierEngine()), txs, W)
	})
	v["pipeline.classify_s"] = s.Dur().Seconds()
	v["pagemodel.pages"] = float64(cls.Perf.Pages)
	v["intern.urls"] = float64(cls.Perf.DistinctURLs)
	v["intern.mb"] = float64(cls.Perf.InternedBytes) / 1e6
	var tls *pipeline.TLSClassifyResult
	s = tr.Do("pipeline.classify_tls", func() { tls = pipeline.ClassifyTLS(engine, flows, W) })
	v["pipeline.classify_tls_s"] = s.Dur().Seconds()

	// inference: what the report's per-user section computes.
	abpIPs := dnssim.DiscoverAll(world.DNSZone(), webgen.ABPListHost, 3, 4)
	s = tr.Do("inference.aggregate", func() {
		users := inference.Aggregate(results)
		inference.MarkListDownloads(users, flows, webgen.ABPListHost, abpIPs)
		opt := inference.Options{RatioThreshold: 0.05, ActiveThreshold: adtraceThreshold}
		active := inference.ActiveBrowsers(users, opt)
		inference.Table3(active, opt)
		inference.ABPShare(active, opt)
		inference.HouseholdsWithDownload(users)
		inference.MarkTLSListDownloads(tls.Households, flows, webgen.ABPListHost, abpIPs)
		v["inference.users"] = float64(len(users))
	})
	v["inference.aggregate_s"] = s.Dur().Seconds()

	data := report.Data{Workers: pres.Workers, Stats: pres.Stats, Reader: rstats, Table: pres.Table,
		Transactions: txs, TLSFlows: flows}
	s = tr.Do("report.print", func() { err = report.Print(io.Discard, world, data, reportOptions(W)) })
	if err != nil {
		return fail("report.Print", err)
	}
	v["report.print_s"] = s.Dur().Seconds()
	// Let go of the record sets before the supervised runs build their own.
	txs, flows, results, reqs, shardTx, shardTLS, pres, cls, data = nil, nil, nil, nil, nil, nil, nil, nil, report.Data{}

	// runz: the supervisor over the same engine, without and with periodic
	// checkpoints.
	supervised := func(name string, opt runz.Options) (Span, *runz.Result, error) {
		var res *runz.Result
		s, err := withTrace(name, func(r *wire.Reader) error {
			var err error
			res, err = runz.Run(r, opt)
			if err == nil && res.Outcome != runz.OutcomeCompleted {
				err = fmt.Errorf("outcome %s: %s", res.Outcome, res.Cause)
			}
			return err
		})
		return s, res, err
	}
	run, _, err := supervised("runz.run", batchOptions(W))
	if err != nil {
		return fail("runz.Run", err)
	}
	v["runz.run_s"] = run.Dur().Seconds()
	v["runz.overhead_s"] = (run.Dur() - paW.Dur()).Seconds()
	ckptOpt := batchOptions(W)
	ckptOpt.CheckpointPath = filepath.Join(workDir, "batch.ckpt")
	ckpt, cres, err := supervised("runz.run+ckpt", ckptOpt)
	if err != nil {
		return fail("runz.Run with checkpoints", err)
	}
	v["runz.ckpt_s"] = (ckpt.Dur() - run.Dur()).Seconds()
	v["runz.ckpt_count"] = float64(cres.Checkpoints)
	if info, err := os.Stat(ckptOpt.CheckpointPath); err == nil {
		v["runz.ckpt_mb"] = float64(info.Size()) / 1e6
	} else {
		return fail("checkpoint file", err)
	}

	// daemon: the full serve path, then the same run with window emission
	// stubbed out; the difference is classification + record files.
	drep, err := replayDaemon(fx, world, W, filepath.Join(workDir, "daemon"), tr)
	if err != nil {
		return fail("daemon.Run", err)
	}
	winOpt := batchOptions(W)
	winOpt.CheckpointPath = filepath.Join(workDir, "window.ckpt")
	winOpt.Windows = runz.WindowPolicy{Width: windowWidth, Grace: windowGrace, Emit: func(*runz.Window) error { return nil }}
	win, _, err := supervised("daemon.window", winOpt)
	if err != nil {
		return fail("runz.Run with a no-op window policy", err)
	}
	emitted, err := dirSize(windowsDir(filepath.Join(workDir, "daemon")))
	if err != nil {
		return fail("window records", err)
	}
	v["daemon.run_s"] = drep.Elapsed.Seconds()
	v["daemon.window_s"] = win.Dur().Seconds()
	v["daemon.emit_s"] = (drep.Elapsed - win.Dur()).Seconds()
	v["daemon.windows"] = float64(drep.Run.WindowsEmitted)
	v["daemon.emit_mb"] = float64(emitted) / 1e6
	v["daemon.live_users"] = float64(drep.Daemon.LiveUsers)
	v["daemon.evicted_users"] = float64(drep.Daemon.EvictedUsers)

	// Tracing overhead: adtrace's own call sequence with each call in a span,
	// against the same sequence unobserved; the sum of the traced pair's spans
	// must come out where the untraced replay does. Pairs repeat until a
	// half second has been compared, so a short fixture is not judged on one
	// scheduling accident, and the medians are compared.
	var tracedS, plainS []float64
	for total := 0.0; total < 0.5; {
		top := tr.Do("adtrace.replay", func() { _, err = replayBatch(fx, world, W, tr, io.Discard) })
		if err != nil {
			return fail("traced replay", err)
		}
		plain, err := replayBatch(fx, world, W, nil, io.Discard)
		if err != nil {
			return fail("untraced replay", err)
		}
		tracedS = append(tracedS, tr.childrenTotal(top.ID).Seconds())
		plainS = append(plainS, plain.Elapsed.Seconds())
		total += plain.Elapsed.Seconds()
	}
	v["trace.overhead_pct"] = 100 * (median(tracedS) - median(plainS)) / median(plainS)

	v["loadgen.late_p98_ms"], v["loadgen.sent_mb"] = 0, 0
	return v, nil
}
