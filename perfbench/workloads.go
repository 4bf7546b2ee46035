package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	rtbh "repro"
	"repro/internal/detect"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/textreport"
)

// ctlHeavyConfig is the BenchConfig world (400 members, pure RTBH) with
// its control plane kept and the period shortened: EventsTotal, not
// Days, sets the number of control messages, so the route server and
// the serial compose still dominate.
func ctlHeavyConfig(seed uint64) rtbh.Config {
	c := rtbh.BenchConfig()
	c.Seed = seed
	c.Days = 12
	c.EventsTotal = 1200
	c.UniqueVictims = 600
	return c
}

// dataHeavyConfig is the TestConfig control plane with four times the
// traffic and FlowSpec escalation: the fabric, the IPFIX codec and
// pipeline observe dominate; the route server and compose are small.
func dataHeavyConfig(seed uint64) rtbh.Config {
	c := rtbh.TestConfig()
	c.Seed = seed
	c.TrafficScale = 4
	c.MitigationPolicy = "escalate"
	return c
}

// liveServeConfig is the TestConfig world, two thirds as long with the
// same event density, streamed over the loopback transports with the
// detector on.
func liveServeConfig(seed uint64) rtbh.Config {
	c := rtbh.TestConfig()
	c.Seed = seed
	c.Days = 20
	c.EventsTotal = 600
	c.UniqueVictims = 300
	return c
}

// renderReport writes the report the way rtbh-analyze does, minus its
// timing line: the cleaning counters, then every experiment.
func renderReport(w io.Writer, r *rtbh.Report) {
	fmt.Fprintf(w, "records: %d total, %d internal (cleaned), %d attributed to blackholed prefixes, %d dropped\n",
		r.TotalRecords, r.InternalRecords, r.AttributedRecords, r.DroppedRecords)
	fmt.Fprintf(w, "events: %d\n\n", len(r.Events))
	textreport.RenderAll(w, r)
}

func rendered(r *rtbh.Report) string {
	var b strings.Builder
	renderReport(&b, r)
	return b.String()
}

// analyzed is one timed OpenDataset → Analyze → render call.
type analyzed struct {
	report *rtbh.Report
	text   string
	took   timing
}

func analyzeDir(dir string, workers int) (*analyzed, error) {
	runtime.GC()
	stop := startTiming()
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	opts := rtbh.DefaultOptions()
	opts.Workers = workers
	rep, err := ds.Analyze(opts)
	if err != nil {
		return nil, err
	}
	text := rendered(rep)
	return &analyzed{report: rep, text: text, took: stop()}, nil
}

// analyzeBoth analyzes dir at one worker and at nproc, alternating which
// goes first by iteration so neither always inherits the other's heap,
// and checks the two reports render byte-identical.
func analyzeBoth(e *runEnv, dir string, iter int) (one, all *analyzed, ok bool) {
	var err error
	if iter%2 == 0 {
		if one, err = analyzeDir(dir, 1); e.op(err) {
			all, err = analyzeDir(dir, e.nproc)
			e.op(err)
		}
	} else {
		if all, err = analyzeDir(dir, e.nproc); e.op(err) {
			one, err = analyzeDir(dir, 1)
			e.op(err)
		}
	}
	if one == nil || all == nil {
		return nil, nil, false
	}
	ok = e.check(one.text == all.text, "reports at Workers=1 and Workers=%d differ", e.nproc)
	return one, all, ok
}

// setupReps is how many times each iteration sets up; setup_s is the
// median over all of them, and the last set-up is the one measured.
const setupReps = 3

// iteration is one measured pass of a workload.
type iteration struct {
	cfg      rtbh.Config
	setup    []time.Duration // every set-up repetition's run time
	ingest   timing          // the call that writes the dataset: Simulate or LiveRun.Run
	sum      *rtbh.SimulationSummary
	one, all *analyzed // the written dataset analyzed at 1 and nproc workers

	// live-serve only.
	queries    []query
	eval       *detect.Eval
	detections []detect.Detection
	truth      []detect.TruthAttack
	obs        rtbh.MetricsSnapshot // the run's registry after Final
}

// batchIteration plans the world (the set-up: the checks reconcile the
// simulation against it), simulates it into dir, analyzes the dataset at
// both worker counts and checks the outputs. It returns nil when an
// operation failed (recorded in e) and an error only when the run cannot
// go on at all.
func batchIteration(e *runEnv, cfg rtbh.Config, dir string, iter int) (*iteration, error) {
	it := &iteration{cfg: cfg}
	var w *scenario.World
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		stop := startTiming()
		var err error
		if w, err = scenario.Plan(cfg); err != nil {
			return nil, err
		}
		it.setup = append(it.setup, stop().run())
	}

	runtime.GC()
	stop := startTiming()
	sum, err := rtbh.Simulate(cfg, dir)
	it.ingest = stop()
	if !e.op(err) {
		return nil, nil
	}
	it.sum = sum
	e.check(sum.Events == len(w.Events) && sum.Members == len(w.Members) && sum.Hosts == len(w.Hosts),
		"simulation summary %d events/%d members/%d hosts, planned %d/%d/%d",
		sum.Events, sum.Members, sum.Hosts, len(w.Events), len(w.Members), len(w.Hosts))
	e.check(sum.FlowRecords > 0 && sum.ControlMsgs > 0, "empty simulation")

	one, all, ok := analyzeBoth(e, dir, iter)
	if !ok {
		return nil, nil
	}
	it.one, it.all = one, all
	e.check(one.report.TotalRecords == sum.FlowRecords,
		"report has %d records, simulation wrote %d", one.report.TotalRecords, sum.FlowRecords)
	return it, nil
}

// worldSeed is the scenario seed of iteration i of a run with the given
// seed: each iteration simulates a world of its own, so a run's medians
// average over several worlds rather than repeat one.
func worldSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// measured is what a run's iterations measured: one sample per
// iteration, the pooled looking-glass queries, and the last iteration
// whole (with its dataset directory) for a traced run to replay.
type measured struct {
	setup, ingest, an, an1, rss []float64
	wallIngest, wallAn, wallAn1 []float64 // before the steal correction
	queries                     []query
	cacheHits, cacheMisses      int64
	last                        *iteration
	lastDir                     string
}

// measure runs iterations until the measured window is used, each on the
// world of its own seed (worldSeed) and in a dataset directory of its
// own, removed once the next iteration starts.
func measure(e *runEnv, config func(uint64) rtbh.Config,
	iterate func(cfg rtbh.Config, dir string, i int) (*iteration, error)) (*measured, error) {
	start := time.Now()
	m := &measured{}
	var walls []time.Duration
	for i := 0; keepGoing(start, e.seconds, walls); i++ {
		if m.lastDir != "" {
			os.RemoveAll(m.lastDir)
		}
		m.last, m.lastDir = nil, filepath.Join(e.work, fmt.Sprintf("ds-%d", i))
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t := time.Now()
		it, err := iterate(config(worldSeed(e.seed, i)), m.lastDir, i)
		if err != nil {
			return nil, err
		}
		if it == nil {
			break // a failed operation; the result reports it
		}
		walls = append(walls, time.Since(t))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m.rss = append(m.rss, rss)
		m.add(it)
	}
	e.info("iterations", float64(len(walls)), "count")
	return m, nil
}

// add records one iteration's sample and keeps it as the last.
func (m *measured) add(it *iteration) {
	for _, d := range it.setup {
		m.setup = append(m.setup, d.Seconds())
	}
	recs := float64(it.one.report.TotalRecords)
	m.ingest = append(m.ingest, recs/it.ingest.run().Seconds())
	m.an1 = append(m.an1, recs/it.one.took.run().Seconds())
	m.an = append(m.an, recs/it.all.took.run().Seconds())
	m.wallIngest = append(m.wallIngest, recs/it.ingest.wall.Seconds())
	m.wallAn1 = append(m.wallAn1, recs/it.one.took.wall.Seconds())
	m.wallAn = append(m.wallAn, recs/it.all.took.wall.Seconds())
	m.queries = append(m.queries, it.queries...)
	m.cacheHits += it.obs.Counter("serve.cache_hits")
	m.cacheMisses += it.obs.Counter("serve.cache_misses")
	m.last = it
}

// endToEnd sets the end-to-end metrics every workload reports, as
// medians over the iterations (peak_rss_mb: of each iteration's peak).
func (e *runEnv) endToEnd(m *measured) {
	e.set("setup_s", median(m.setup), "s")
	e.set("ingest_rec_per_s", median(m.ingest), "1/s")
	e.set("analyze_rec_per_s", median(m.an), "1/s")
	e.set("analyze_1w_rec_per_s", median(m.an1), "1/s")
	e.set("peak_rss_mb", median(m.rss), "MB")
	e.info("wall_ingest_rec_per_s", median(m.wallIngest), "1/s")
	e.info("wall_analyze_rec_per_s", median(m.wallAn), "1/s")
	e.info("wall_analyze_1w_rec_per_s", median(m.wallAn1), "1/s")
	if m.last != nil {
		e.info("records", float64(m.last.one.report.TotalRecords), "count")
		e.info("control_msgs", float64(m.last.sum.ControlMsgs), "count")
	}
}

// runBatch is the untraced run of a batch workload (ctl-heavy,
// data-heavy).
func runBatch(e *runEnv, config func(uint64) rtbh.Config) error {
	m, err := measure(e, config, func(cfg rtbh.Config, dir string, i int) (*iteration, error) {
		return batchIteration(e, cfg, dir, i)
	})
	if err != nil {
		return err
	}
	e.endToEnd(m)
	return nil
}

// Open-loop load on the looking glass during a live run.
const (
	queryRate = 20 // queries per second, on a fixed schedule
	// Every coldEvery-th query, starting half a cycle into the run (a
	// snapshot of the still empty analyzer at its start costs nothing),
	// carries ?maxAge=0 and forces a fresh snapshot; the rest accept the
	// server's default cache age.
	coldEvery = 20
)

// queryMix is the fixed endpoint rotation; query i asks for
// queryMix[i%len(queryMix)], so the cold queries (i%coldEvery ==
// coldEvery/2) all ask for the summary.
var queryMix = []string{
	"summary", "events", "active", "collateral", "usecases",
	"victims", "mitigation", "detections", "health", "summary",
}

// liveSetup builds a live run with the detector and a started looking
// glass over its analyzer.
func liveSetup(cfg rtbh.Config, dir string) (*rtbh.LiveRun, *rtbh.MetricsRegistry, *serve.Server, string, error) {
	reg := rtbh.NewMetricsRegistry()
	lr, err := rtbh.NewLiveRun(cfg, dir, reg)
	if err != nil {
		return nil, nil, nil, "", err
	}
	if err := lr.EnableDetector(detect.Config{}); err != nil {
		return nil, nil, nil, "", err
	}
	srv, err := serve.New(serve.Config{
		Source:     lr.Analyzer(),
		Options:    rtbh.DefaultOptions(),
		Detections: lr.Detector().Status,
		Metrics:    reg,
	})
	if err != nil {
		return nil, nil, nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, "", err
	}
	return lr, reg, srv, addr.String(), nil
}

// liveIteration sets up a live run with the detector and a looking glass
// over its analyzer, runs it under open-loop query load, then checks the
// run: the analyzer's final report equals Analyze of the dataset the run
// wrote (at both worker counts), every query was answered 200 with a
// JSON body, and the detector meets the repository's precision/recall
// bar.
func liveIteration(e *runEnv, cfg rtbh.Config, dir string, iter int) (*iteration, error) {
	it := &iteration{cfg: cfg}
	var (
		lr   *rtbh.LiveRun
		reg  *rtbh.MetricsRegistry
		srv  *serve.Server
		addr string
	)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.Close() // an earlier repetition's, never used
		}
		runtime.GC()
		stop := startTiming()
		var err error
		if lr, reg, srv, addr, err = liveSetup(cfg, dir); err != nil {
			return nil, err
		}
		it.setup = append(it.setup, stop().run())
	}
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()

	lg := startLoad(addr, e.nproc)
	stop := startTiming()
	sum, err := lr.Run(context.Background())
	it.ingest = stop()
	it.queries = lg.finish()
	srv.Close()
	srv = nil // it holds the analyzer: let the analyses below run without it
	if !e.op(err) {
		return nil, nil
	}
	it.sum = sum
	for _, q := range it.queries {
		e.op(q.err)
	}

	final, err := lr.Analyzer().Final(rtbh.DefaultOptions())
	if !e.op(err) {
		return nil, nil
	}
	finalText := rendered(final)
	it.eval = lr.EvaluateDetections(detect.DefaultWindow)
	e.check(it.eval.Precision >= 0.9 && it.eval.Recall >= 0.8,
		"detector precision %.3f recall %.3f below 0.9/0.8", it.eval.Precision, it.eval.Recall)
	it.detections = lr.Detector().Status().Detections
	it.truth = lr.AttackTruth()
	it.obs = reg.Snapshot()

	one, all, ok := analyzeBoth(e, dir, iter)
	if !ok {
		return nil, nil
	}
	it.one, it.all = one, all
	e.check(finalText == one.text, "online final report differs from Analyze of the written dataset")
	return it, nil
}

// measureLive runs live iterations for the window and adds the pooled
// query and detector figures to the table.
func measureLive(e *runEnv) (*measured, error) {
	precision, recall := 1.0, 1.0
	m, err := measure(e, liveServeConfig, func(cfg rtbh.Config, dir string, i int) (*iteration, error) {
		it, err := liveIteration(e, cfg, dir, i)
		if it != nil {
			precision = math.Min(precision, it.eval.Precision)
			recall = math.Min(recall, it.eval.Recall)
		}
		return it, err
	})
	if err != nil {
		return nil, err
	}
	e.info("detect_precision_min", precision, "ratio")
	e.info("detect_recall_min", recall, "ratio")
	e.serveInfo(m.queries)
	return m, nil
}

// runLiveServe is the untraced live-serve run.
func runLiveServe(e *runEnv) error {
	m, err := measureLive(e)
	if err != nil {
		return err
	}
	e.endToEnd(m)
	return nil
}
