package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/pipeline"
	"repro/internal/detect"
	"repro/internal/fabric"
	"repro/internal/scenario"
)

// perLayer lists every per-layer metric in the order the result table
// groups them. A traced run reports all of them; a layer a workload does
// not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"scenario.plan_s", "s"}, {"scenario.generate_s", "s"},
	{"routeserver.process_s", "s"}, {"routeserver.msgs", "count"}, {"routeserver.us_per_msg", "us"},
	{"fabric.inject_s", "s"}, {"fabric.batches", "count"}, {"fabric.records_out", "count"},
	{"ipfix.encode_s", "s"}, {"ipfix.decode_s", "s"}, {"ipfix.decode_ns_per_record", "ns"},
	{"mrt.encode_s", "s"}, {"mrt.decode_s", "s"},
	{"archive.flush_s", "s"}, {"dataset.open_s", "s"},
	{"pipeline.build_s", "s"}, {"pipeline.observe_s", "s"}, {"pipeline.observe_ns_per_record", "ns"},
	{"pipeline.allocs_per_record", "count"}, {"pipeline.parallel_observe_s", "s"}, {"pipeline.merge_s", "s"},
	{"compose.fig2_s", "s"}, {"compose.fig3_s", "s"}, {"compose.fig4_s", "s"}, {"compose.fig10_s", "s"},
	{"compose.drop_s", "s"}, {"compose.anomaly_s", "s"}, {"compose.proto_s", "s"}, {"compose.hosts_s", "s"},
	{"compose.fig18_s", "s"}, {"compose.fig19_s", "s"}, {"compose.table5_s", "s"}, {"compose.total_s", "s"},
	{"textreport.render_s", "s"},
	{"live.run_s", "s"}, {"live.transport_s", "s"}, {"live.loss_ratio", "ratio"},
	{"online.observe_s", "s"}, {"online.snapshot_ms", "ms"}, {"online.retained_flows", "count"},
	{"detect.observe_s", "s"}, {"detect.tick_s", "s"}, {"detect.ticks", "count"}, {"detect.tick_us", "us"},
	{"detect.tracked_victims", "count"},
	{"detect.detections_live", "count"}, {"detect.detections_loop", "count"},
	{"detect.loop_recall", "ratio"}, {"detect.first_agreement", "ratio"}, {"detect.precision", "ratio"}, {"detect.recall", "ratio"},
	{"serve.queries", "count"}, {"serve.cold", "count"}, {"serve.p50_ms", "ms"}, {"serve.p99_ms", "ms"},
	{"serve.cold_p90_ms", "ms"}, {"serve.cold_ms", "ms"}, {"serve.cached_us", "us"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.error_ratio", "ratio"}, {"loadgen.lag_p99_ms", "ms"},
	{"trace.wall_s", "s"}, {"trace.reference_s", "s"}, {"trace.unattributed_s", "s"}, {"trace.overhead_ratio", "ratio"},
	{"obs.routeserver.updates", "count"}, {"obs.routeserver.import.accepted", "count"},
	{"obs.routeserver.rib_routes", "count"}, {"obs.fabric.records_sampled", "count"},
	{"obs.fabric.records_dropped_sampled", "count"}, {"obs.pipeline.merges", "count"},
	{"obs.live.bgp.updates_sent", "count"}, {"obs.live.bgp.updates_delivered", "count"},
	{"obs.live.ipfix.exported_records", "count"}, {"obs.live.ipfix.collected_records", "count"},
	{"obs.live.ipfix.dropped_records", "count"}, {"obs.online.records_compacted", "count"},
	{"obs.detect.records", "count"}, {"obs.detect.detections", "count"},
	{"obs.serve.cache_hits", "count"}, {"obs.serve.cache_misses", "count"},
}

// obsPrefixes are the registry metrics a traced run records as counts
// (all of them go to the trace file; perLayer names the ones reported).
var obsPrefixes = []string{"routeserver.", "fabric.", "pipeline.merge", "live.", "online.", "detect.", "serve.cache_"}

// ledger collects a traced run's per-layer values.
type ledger struct {
	tr   *tracer
	recs float64 // records the analysis replay observed
	agg  map[string]*layerTime
	obs  map[string]int64
	v    map[string]float64
}

func newLedger(tr *tracer) *ledger {
	return &ledger{tr: tr, obs: map[string]int64{}, v: map[string]float64{}}
}

// addObs records a registry snapshot's counters, gauges and timer totals
// under obsPrefixes.
func (l *ledger) addObs(snap rtbh.MetricsSnapshot) {
	add := func(name string, v int64) {
		for _, p := range obsPrefixes {
			if strings.HasPrefix(name, p) {
				l.obs[name] = v
				return
			}
		}
	}
	for n, v := range snap.Counters {
		add(n, v)
	}
	for n, v := range snap.Gauges {
		add(n, v)
	}
	for n, t := range snap.Timers {
		add(n+".total_ns", t.TotalNS)
	}
}

func (l *ledger) total(name string) float64 {
	if a := l.agg[name]; a != nil {
		return a.total.Seconds()
	}
	return 0
}

func (l *ledger) own(name string) float64 {
	if a := l.agg[name]; a != nil {
		return a.own.Seconds()
	}
	return 0
}

func (l *ledger) count(name string) float64 {
	if a := l.agg[name]; a != nil {
		return float64(a.count)
	}
	return 0
}

func per(x, n, scale float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n * scale
}

// finish closes the root span, derives the span-based metrics and writes
// them, plus the spans and registry counts, to the run's result and
// trace directory.
func (l *ledger) finish(e *runEnv) error {
	l.tr.end() // root
	l.agg = l.tr.aggregate()
	v := l.v
	v["scenario.plan_s"] = l.total("scenario.plan")
	v["scenario.generate_s"] = l.own("scenario.drive")
	v["routeserver.process_s"] = l.own("routeserver.process")
	v["routeserver.us_per_msg"] = per(v["routeserver.process_s"], v["routeserver.msgs"], 1e6)
	v["fabric.inject_s"] = l.own("fabric.inject")
	v["fabric.batches"] = l.count("fabric.inject")
	v["ipfix.encode_s"] = l.total("ipfix.encode")
	v["ipfix.decode_s"] = l.own("ipfix.decode")
	v["mrt.encode_s"] = l.total("mrt.encode")
	v["mrt.decode_s"] = l.total("mrt.decode")
	v["archive.flush_s"] = l.total("archive.flush")
	v["dataset.open_s"] = l.total("dataset.open")
	v["pipeline.build_s"] = l.total("pipeline.build")
	v["pipeline.observe_s"] = l.total("pipeline.observe")
	for _, s := range []string{"fig2", "fig3", "fig4", "fig10", "drop", "anomaly", "proto", "hosts", "fig18", "fig19", "table5", "total"} {
		v["compose."+s+"_s"] = l.total("compose." + s)
	}
	v["textreport.render_s"] = l.total("textreport.render")
	v["online.observe_s"] = l.total("online.observe")
	v["detect.observe_s"] = l.total("detect.observe")
	v["detect.tick_s"] = l.total("detect.tick")
	v["detect.tick_us"] = per(v["detect.tick_s"], v["detect.ticks"], 1e6)
	v["online.snapshot_ms"] = l.total("online.final") * 1000
	v["pipeline.observe_ns_per_record"] = per(v["pipeline.observe_s"], l.recs, 1e9)
	v["ipfix.decode_ns_per_record"] = per(v["ipfix.decode_s"], l.recs, 1e9)
	v["trace.wall_s"] = l.total("workload")
	v["trace.reference_s"] = l.total("reference.untraced")
	v["trace.unattributed_s"] = l.own("workload")
	for n, c := range l.obs {
		v["obs."+n] = float64(c)
	}
	for _, m := range perLayer {
		e.set(m.name, v[m.name], m.unit)
	}

	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(e.traceDir, fmt.Sprintf("%s-seed%d", e.workload, e.seed))
	if err := l.tr.writeSpans(base + ".spans.tsv"); err != nil {
		return err
	}
	b, err := json.MarshalIndent(l.obs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".obs.json", b, 0o644)
}

// traceAnalysis replays a dataset through each analysis layer: the MRT
// decode on its own, Dataset.Analyze's sequential path section by
// section (checked against want, the untraced Workers=1 rendering), and
// the parallel observe at nproc workers with its shard merge. It returns
// the traced wall of the calls that mirror the untraced analysis.
func traceAnalysis(e *runEnv, l *ledger, dir, want string) (time.Duration, error) {
	tr := l.tr
	opts := rtbh.DefaultOptions()
	err := tr.do("mrt.decode", func() error {
		f, err := os.Open(filepath.Join(dir, rtbh.FileUpdates))
		if err != nil {
			return err
		}
		defer f.Close()
		_, _, err = analysis.ParseMRTAll(f)
		return err
	})
	if !e.op(err) {
		return 0, nil
	}

	runtime.GC()
	var ds *rtbh.Dataset
	start := time.Now()
	err = tr.do("dataset.open", func() error {
		var err error
		ds, err = rtbh.OpenDataset(dir)
		return err
	})
	if !e.op(err) {
		return 0, nil
	}
	mir, err := analyzeMirror(tr, ds, opts)
	wall := time.Since(start)
	if !e.op(err) {
		return 0, nil
	}
	rep := mir.report
	e.check(mir.text == want, "section-by-section compose renders differently from Analyze")
	l.recs = float64(rep.TotalRecords)
	l.v["pipeline.allocs_per_record"] = per(float64(mir.passMallocs), l.recs, 1)

	reg := rtbh.NewMetricsRegistry()
	var pp *pipeline.Parallel
	err = tr.do("pipeline.parallel_build", func() error {
		var err error
		if pp, err = pipeline.NewParallel(ds.Meta, ds.Updates, opts.Delta, e.nproc); err != nil {
			return err
		}
		pp.BindFlow(mitigation.NewIndex(ds.FlowUpdates, ds.Meta.End))
		pp.Instrument(reg)
		return nil
	})
	if !e.op(err) {
		return 0, nil
	}
	t := time.Now()
	err = tr.do("pipeline.parallel_observe", func() error { return pp.RunBatches(ds.EachFlowBatch) })
	parallel := time.Since(t)
	if !e.op(err) {
		return 0, nil
	}
	e.check(pp.Pipeline().TotalRecords == rep.TotalRecords, "parallel observe saw %d records, sequential %d",
		pp.Pipeline().TotalRecords, rep.TotalRecords)
	var merge time.Duration
	for n, tv := range reg.Snapshot().Timers {
		if strings.HasPrefix(n, "pipeline.merge.") {
			merge += time.Duration(tv.TotalNS)
		}
	}
	l.addObs(reg.Snapshot())
	l.v["pipeline.merge_s"] = merge.Seconds()
	l.v["pipeline.parallel_observe_s"] = (parallel - merge).Seconds()
	return wall, nil
}

// traceBatch is the traced run of a batch workload. An untraced
// reference iteration runs first (one span, not traced inside); then the
// world is planned and driven through the mirrored executor, whose
// archives must equal the reference Simulate's byte for byte, and the
// reference dataset is replayed through each analysis layer.
func traceBatch(e *runEnv, config func(uint64) rtbh.Config) error {
	cfg := config(worldSeed(e.seed, 0))
	tr := newTracer()
	l := newLedger(tr)
	tr.begin(tr.id("workload"))

	refDir := filepath.Join(e.work, "ref")
	var it *iteration
	err := tr.do("reference.untraced", func() error {
		var err error
		it, err = batchIteration(e, cfg, refDir, 0)
		return err
	})
	if err != nil {
		return err
	}
	if it == nil {
		return l.finish(e)
	}

	runtime.GC()
	start := time.Now()
	var w *scenario.World
	if err := tr.do("scenario.plan", func() error { w, err = scenario.Plan(cfg); return err }); err != nil {
		return err
	}
	mirDir := filepath.Join(e.work, "mirror")
	if err := os.MkdirAll(mirDir, 0o755); err != nil {
		return err
	}
	reg := rtbh.NewMetricsRegistry()
	dr, err := driveMirror(tr, w, mirDir, nil, nil, reg)
	simWall := time.Since(start)
	if !e.op(err) {
		return l.finish(e)
	}
	err = sameArchives(refDir, mirDir)
	e.check(err == nil, "mirrored drive archives differ from rtbh.Simulate's: %v", err)
	os.RemoveAll(mirDir)
	l.addObs(reg.Snapshot())
	l.v["routeserver.msgs"] = float64(dr.msgs)
	l.v["fabric.records_out"] = float64(dr.records)

	anWall, err := traceAnalysis(e, l, refDir, it.one.text)
	if err != nil {
		return err
	}
	os.RemoveAll(refDir)
	untraced := it.ingest.wall + it.one.took.wall
	l.v["trace.overhead_ratio"] = (simWall+anWall).Seconds()/untraced.Seconds() - 1
	return l.finish(e)
}

// traceLiveServe is the traced live-serve run. Untraced live iterations
// under query load run first for the measured window (one span); they
// give the live, serve and registry figures. The traced part runs the
// same world as an in-process closed loop (detector ticks before every
// action, actions straight to the route server, no sockets), whose
// detector must meet the same precision/recall bar and whose agreement
// with the live run's detections is reported, and replays the last live
// run's dataset through each analysis layer.
func traceLiveServe(e *runEnv) error {
	tr := newTracer()
	l := newLedger(tr)
	tr.begin(tr.id("workload"))

	var m *measured
	err := tr.do("reference.untraced", func() error {
		var err error
		m, err = measureLive(e)
		return err
	})
	if err != nil {
		return err
	}
	it, refDir := m.last, m.lastDir
	if it == nil {
		return l.finish(e)
	}
	cfg := it.cfg
	for n, q := range serveStats(m.queries) {
		l.v[n] = q.Value
	}
	l.v["serve.cache_hit_ratio"] = per(float64(m.cacheHits), float64(m.cacheHits+m.cacheMisses), 1)
	l.addObs(it.obs)
	snap := it.obs
	sent := float64(snap.Counter("live.ipfix.exported_records") + snap.Counter("live.bgp.updates_sent"))
	got := float64(snap.Counter("live.ipfix.collected_records") + snap.Counter("live.bgp.updates_delivered"))
	l.v["live.loss_ratio"] = per(sent-got, sent, 1)
	l.v["live.run_s"] = it.ingest.wall.Seconds()
	l.v["online.retained_flows"] = float64(snap.Gauge("online.retained_flows"))
	l.v["detect.precision"] = it.eval.Precision
	l.v["detect.recall"] = it.eval.Recall

	// The closed loop.
	runtime.GC()
	var w *scenario.World
	if err := tr.do("scenario.plan", func() error { w, err = scenario.Plan(cfg); return err }); err != nil {
		return err
	}
	ds, err := rtbh.OpenDataset(refDir)
	if err != nil {
		return err
	}
	online := rtbh.NewOnlineAnalyzer(ds.Meta)
	det, err := detect.New(detect.Config{
		SamplingRate: w.Cfg.SamplingRate,
		BlackholeMAC: fabric.BlackholeMAC,
		TrafficScale: w.Cfg.Scale(),
	})
	if err != nil {
		return err
	}
	loopDir := filepath.Join(e.work, "loop")
	if err := os.MkdirAll(loopDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	dr, err := driveMirror(tr, w, loopDir, det, online, rtbh.NewMetricsRegistry())
	loopWall := time.Since(start)
	if !e.op(err) {
		return l.finish(e)
	}
	os.RemoveAll(loopDir)
	st := det.Status()
	liveDets := it.detections
	ev := detect.Evaluate(st.Detections, it.truth, detect.DefaultWindow)
	e.check(ev.Precision >= 0.9 && ev.Recall >= 0.8,
		"closed-loop detector precision %.3f recall %.3f below 0.9/0.8", ev.Precision, ev.Recall)
	l.v["detect.detections_live"] = float64(len(liveDets))
	l.v["detect.detections_loop"] = float64(len(st.Detections))
	l.v["detect.loop_recall"] = ev.Recall
	l.v["detect.first_agreement"] = firstDetectionAgreement(st.Detections, liveDets)
	l.v["routeserver.msgs"] = float64(dr.msgs)
	l.v["fabric.records_out"] = float64(dr.records)
	l.v["detect.ticks"] = float64(dr.ticks)
	l.v["detect.tracked_victims"] = float64(st.Tracked)
	l.v["live.transport_s"] = (it.ingest.wall - loopWall).Seconds()

	var final *rtbh.Report
	err = tr.do("online.final", func() error {
		var err error
		final, err = online.Final(rtbh.DefaultOptions())
		return err
	})
	if !e.op(err) {
		return l.finish(e)
	}
	e.check(final.TotalRecords == dr.records, "closed-loop analyzer saw %d records, drove %d", final.TotalRecords, dr.records)

	anWall, err := traceAnalysis(e, l, refDir, it.one.text)
	if err != nil {
		return err
	}
	l.v["trace.overhead_ratio"] = anWall.Seconds()/it.one.took.wall.Seconds() - 1
	return l.finish(e)
}
