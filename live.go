package rtbh

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/fabric"
	"repro/internal/faultnet"
	"repro/internal/ipfix"
	"repro/internal/live"
	"repro/internal/routeserver"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// LiveRun is one live-mode run of a planned world: instead of feeding
// the route server and the archive writers in-process the way Simulate
// does, every control update crosses a real BGP-over-TCP session and
// every sampled flow record is exported as RFC 7011 IPFIX over UDP to a
// collector, which writes the archives and feeds an OnlineAnalyzer.
// The archived dataset is byte-identical to Simulate's for the same
// Config (see DESIGN.md, "Live mode").
//
// Construct with NewLiveRun, inspect progress through Analyzer, then
// Run once. Cancelling Run's context interrupts the run gracefully: the
// in-flight streams drain, the archive holds the delivered prefix of
// the run, and the analyzer reports over exactly that prefix.
type LiveRun struct {
	cfg  Config
	reg  *MetricsRegistry
	w    *scenario.World
	fed  *scenario.Federation
	ixps []*liveIXP
	det  *detect.Detector

	ran         bool
	interrupted bool
}

// liveIXP is one exchange of a live run: its dataset directory, online
// analyzer and transports.
type liveIXP struct {
	dir      string
	analyzer *OnlineAnalyzer
	lm       *live.Metrics
	plan     *faultnet.Plan

	// Set by Run.
	ds     *datasetWriter
	runner *live.Runner
	ex     *scenario.Exchange
	// rsMu serializes route-server access: deliveries arrive on the
	// sequencer's delivery goroutine, peer flushes on per-session
	// listener goroutines, and the route server itself is not
	// concurrency-safe.
	rsMu sync.Mutex
}

// ChaosProfiles lists the fault-injection profile names accepted by
// EnableChaos and the -chaos-profile flag.
func ChaosProfiles() []string { return faultnet.ProfileNames() }

// NewLiveRun plans the world described by cfg and prepares the online
// analyzer. Nothing is written and no sockets open until Run. When reg
// is non-nil the live transports register their metrics ("live.*") on
// it immediately, and the route server and fabric add theirs
// ("routeserver.*", "fabric.*") during Run.
func NewLiveRun(cfg Config, dir string, reg *MetricsRegistry) (*LiveRun, error) {
	return newLiveRun(cfg, []string{dir}, reg)
}

// newLiveRun plans the world described by cfg across one exchange per
// directory and prepares each exchange's online analyzer. Only exchange
// 0 registers its metrics on reg: the metric names are global.
func newLiveRun(cfg Config, dirs []string, reg *MetricsRegistry) (*LiveRun, error) {
	w, err := scenario.Plan(cfg)
	if err != nil {
		return nil, err
	}
	lr := &LiveRun{cfg: cfg, reg: reg, w: w, fed: scenario.PlanFederation(w, len(dirs))}
	meta := analysisMeta(w)
	for i, dir := range dirs {
		ix := &liveIXP{dir: dir, analyzer: NewOnlineAnalyzer(meta), lm: live.NewMetrics()}
		if reg != nil && i == 0 {
			ix.lm.Register(reg)
			ix.analyzer.RegisterMetrics(reg)
		}
		lr.ixps = append(lr.ixps, ix)
	}
	return lr, nil
}

// Analyzer returns the run's online analyzer. Snapshot it at any time —
// before, during or after Run. The looking-glass serving layer
// (internal/serve, rtbh-live -serve) mounts its HTTP API over exactly
// this analyzer: every endpoint is a cached view of its Snapshot. A
// federated run has one analyzer per exchange; this is exchange 0's.
func (lr *LiveRun) Analyzer() *OnlineAnalyzer { return lr.ixps[0].analyzer }

// Config returns the configuration the run was planned with; the
// serving layer's health endpoint reports it so clients can tell which
// world they are looking at.
func (lr *LiveRun) Config() Config { return lr.cfg }

// EnableChaos arms a seeded fault-injection plan for the run: the given
// profile's impairments are applied to the BGP/TCP sessions and the
// IPFIX/UDP export path, scheduled deterministically from seed (see
// internal/faultnet). Call before Run. The plan's injection counters
// register on the run's metrics registry under "faultnet.*", so a
// snapshot reconciles injected faults against observed recovery. In a
// federated run exchange i's plan is seeded with seed+i, so every
// exchange flaps independently but deterministically, and only exchange
// 0's counters register.
func (lr *LiveRun) EnableChaos(seed uint64, profile string) error {
	if lr.ran {
		return fmt.Errorf("rtbh: live run already executed")
	}
	p, err := faultnet.ParseProfile(profile)
	if err != nil {
		return err
	}
	for i, ix := range lr.ixps {
		ix.plan = faultnet.NewPlan(seed+uint64(i), p)
		if lr.reg != nil && i == 0 {
			ix.plan.M.Register(lr.reg)
		}
	}
	return nil
}

// EnableDetector arms the closed-loop DRDoS detector for the run: every
// collected flow record also feeds a streaming rate/vector sketch, and
// when a victim's estimated packet rate crosses cfg.Threshold the
// detector originates an RTBH announcement for the victim /32 through
// the route server as its own mitigation peer (AS detect.PeerASN),
// withdrawing it once the attack has been quiet for cfg.Cooldown. Call
// before Run. The run's sampling rate and blackhole MAC are filled in
// from the planned world; cfg.SamplingRate and cfg.BlackholeMAC are
// ignored. Detector metrics ("detect.*") register on the run's registry.
//
// The detector is strictly opt-in: without it the archived dataset is
// byte-identical to Simulate's, with it the archive additionally holds
// the mitigation peer's announcements. The detector supports a single
// exchange; on a federated run it is an error.
func (lr *LiveRun) EnableDetector(cfg detect.Config) error {
	if lr.ran {
		return fmt.Errorf("rtbh: live run already executed")
	}
	if n := len(lr.ixps); n > 1 {
		return fmt.Errorf("rtbh: the detector supports a single exchange, the run has %d", n)
	}
	cfg.SamplingRate = lr.w.Cfg.SamplingRate
	cfg.BlackholeMAC = fabric.BlackholeMAC
	if cfg.TrafficScale == 0 {
		cfg.TrafficScale = lr.w.Cfg.Scale()
	}
	d, err := detect.New(cfg)
	if err != nil {
		return err
	}
	lr.det = d
	if lr.reg != nil {
		d.RegisterMetrics(lr.reg)
	}
	return nil
}

// Detector returns the run's detector, nil unless EnableDetector was
// called. Its Status is safe to read at any time; the serving layer's
// /api/detections endpoint is a view of it.
func (lr *LiveRun) Detector() *detect.Detector { return lr.det }

// AttackTruth extracts the ground-truth DDoS attacks from the planned
// world in the detector evaluation's shape: victim address, real span
// and intensity per attack event.
func (lr *LiveRun) AttackTruth() []detect.TruthAttack {
	var out []detect.TruthAttack
	for _, e := range lr.w.Events {
		if e.Attack == nil {
			continue
		}
		// Victim address, mirroring the scenario driver's choice: the
		// event host's address, or the first host address inside a
		// squatting prefix.
		victim := e.Prefix.Addr + 1
		if e.Host >= 0 {
			victim = lr.w.Hosts[e.Host].IP
		}
		out = append(out, detect.TruthAttack{
			EventID: e.ID,
			Victim:  victim,
			Start:   e.Attack.Start,
			End:     e.Attack.End(),
			PPS:     e.Attack.PPS,
		})
	}
	return out
}

// EvaluateDetections scores the detector's log against the planned
// ground truth (see detect.Evaluate). It returns nil when the detector
// was never enabled.
func (lr *LiveRun) EvaluateDetections(slack time.Duration) *detect.Eval {
	if lr.det == nil {
		return nil
	}
	return detect.Evaluate(lr.det.Status().Detections, lr.AttackTruth(), slack)
}

// ChaosJournal renders every fault the plan injected, grouped by stream
// (exchange by exchange in a federated run): byte-identical across runs
// with the same seed, profile and Config. It is empty until Run and when
// chaos is not enabled.
func (lr *LiveRun) ChaosJournal() string {
	var b strings.Builder
	for _, ix := range lr.ixps {
		if ix.plan != nil {
			b.WriteString(ix.plan.Journal())
		}
	}
	return b.String()
}

// Interrupted reports whether Run ended early because its context was
// cancelled (the dataset then covers the delivered prefix of the run).
func (lr *LiveRun) Interrupted() bool { return lr.interrupted }

// Run drives the planned world through the live transports and writes
// the same dataset files as Simulate into the run's directory. It
// returns after the streams have drained, the shutdown invariants have
// been reconciled (every sent update delivered; every exported record
// collected or accounted as dropped) and the archives are flushed.
//
// Cancelling ctx stops dispatching, drains what is in flight, and
// returns normally with Interrupted() set; any other failure is an
// error.
func (lr *LiveRun) Run(ctx context.Context) (*SimulationSummary, error) {
	res, err := lr.run(ctx)
	if err != nil {
		return nil, err
	}
	return simulationSummary(res), nil
}

// run is the live driver for any exchange count: per exchange a dataset
// writer and a runner whose sessions and export path carry that
// exchange's share of the action stream, routed by the federation.
func (lr *LiveRun) run(ctx context.Context) (*scenario.Result, error) {
	if lr.ran {
		return nil, fmt.Errorf("rtbh: live run already executed")
	}
	lr.ran = true
	w := lr.w
	defer func() {
		for _, ix := range lr.ixps {
			if ix.runner != nil {
				ix.runner.Shutdown() //nolint:errcheck // best-effort cleanup
			}
			if ix.ds != nil {
				ix.ds.close()
			}
		}
	}()

	// The route server's collector hook archives the re-encoded wire
	// message of every delivered update, byte-identical to the batch
	// path; the fabric exports its records over the exchange's runner.
	sinks := make([]scenario.Sinks, len(lr.ixps))
	for i, ix := range lr.ixps {
		var err error
		if ix.ds, err = createDataset(w, ix.dir); err != nil {
			return nil, err
		}
		if ix.runner, err = lr.newRunner(ctx, ix); err != nil {
			return nil, err
		}
		sinks[i] = scenario.Sinks{Control: ix.ds.collect, Flow: ix.runner.ExportFlowBatch}
	}
	sinks[0].Metrics = lr.reg

	var xs []*scenario.Exchange
	st, driveErr := scenario.Drive(w, func(fabricRNG *stats.RNG) (scenario.Executor, error) {
		var err error
		if xs, err = lr.fed.NewExchanges(fabricRNG, sinks); err != nil {
			return nil, err
		}
		if lr.det != nil {
			// The detector peers with the route server like any member:
			// its announcements cross a real BGP session and are archived
			// by the collector hook exactly like operator-originated RTBH.
			if err := xs[0].RS.AddPeer(routeserver.Peer{
				ASN:    detect.PeerASN,
				IP:     w.RSIP + 0xFFFD,
				Policy: routeserver.DefaultPolicy(),
			}); err != nil {
				return nil, err
			}
		}
		exs := make([]scenario.Executor, len(xs))
		for i, ix := range lr.ixps {
			ix.ex = xs[i]
			exs[i] = liveExecutor{r: ix.runner, fb: ix.ex.FB, det: lr.det}
		}
		return lr.fed.Route(exs), nil
	})
	if driveErr != nil {
		if !errors.Is(driveErr, context.Canceled) && !errors.Is(driveErr, context.DeadlineExceeded) {
			return nil, driveErr
		}
		lr.interrupted = true
	}

	// Drain every exchange — even on an interrupted run — so each archive
	// and its analyzer agree on the delivered prefix.
	for _, ix := range lr.ixps {
		if err := ix.runner.Drain(); err != nil {
			return nil, err
		}
	}

	// Close the mitigation loop: with every collected record observed, a
	// final detector tick at the end of the scenario clock dispatches the
	// announcements still pending — including those of detections the
	// drain's last records fired — and withdraws blackholes whose
	// cooldown has expired, so the archive records the full
	// announce/withdraw lifecycle. A second drain settles those updates'
	// sessions as the first settled the run's. Skipped on interruption —
	// the runner refuses new updates once its context is cancelled.
	if lr.det != nil && !lr.interrupted {
		ix := lr.ixps[0]
		ex := liveExecutor{r: ix.runner, fb: ix.ex.FB, det: lr.det}
		if err := ex.dispatchDetections(w.Cfg.End()); err != nil {
			return nil, err
		}
		if err := ix.runner.Drain(); err != nil {
			return nil, err
		}
	}

	for _, ix := range lr.ixps {
		if err := ix.runner.Reconcile(); err != nil {
			return nil, err
		}
		if err := ix.runner.Shutdown(); err != nil {
			return nil, err
		}
	}
	for _, ix := range lr.ixps {
		if err := ix.ds.finish(); err != nil {
			return nil, err
		}
	}
	return lr.fed.Result(xs, st), nil
}

// newRunner starts one exchange's live transports. Delivered updates
// (totally ordered by the sequencer) go to the exchange's route server
// and then its analyzer; collected flow records (in export order) feed
// its archive, its analyzer and the detector.
func (lr *LiveRun) newRunner(ctx context.Context, ix *liveIXP) (*live.Runner, error) {
	deliver := func(ts time.Time, peer uint32, upd *bgp.Update) error {
		ix.rsMu.Lock()
		_, err := ix.ex.RS.Process(ts, peer, upd)
		ix.rsMu.Unlock()
		if err != nil {
			return err
		}
		ix.analyzer.ObserveUpdate(ts, peer, upd)
		return nil
	}
	// Ungraceful session loss flushes the peer's routes, exactly like a
	// production route server would. The orderly Cease at shutdown does
	// not take this path.
	onPeerFlush := func(peer uint32) {
		ix.rsMu.Lock()
		ix.ex.RS.PeerDown(peer)
		ix.rsMu.Unlock()
	}
	flowSink := func(b *ipfix.RecordBatch) error {
		if err := ix.ds.flows.WriteBatch(b); err != nil {
			return err
		}
		ix.analyzer.ObserveFlowBatch(b)
		if lr.det != nil {
			lr.det.ObserveFlowBatch(b)
		}
		return nil
	}

	rcfg := live.RunnerConfig{Fault: ix.plan}
	if ix.plan != nil {
		// Chaos tuning: reconnect fast enough that injected kills heal
		// well inside the restart tolerance, with a hold time that
		// injected stalls (≤2ms) can never expire.
		rcfg.Session = live.SessionConfig{
			HoldTime:     30 * time.Second,
			ReconnectMin: 2 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		}
	}
	r, err := live.NewRunner(ctx, rcfg, ix.lm, deliver, onPeerFlush, flowSink)
	if err != nil {
		return nil, err
	}
	r.SetRouteServerASN(uint32(lr.w.RSASN))
	return r, nil
}

// liveExecutor dispatches the scenario driver's action stream onto the
// live transports. Control is asynchronous (the update crosses a real
// TCP session); the barrier before every Inject restores the batch
// path's "control completes before the next batch" invariant, so the
// fabric always sees the forwarding state the driver intended.
type liveExecutor struct {
	r   *live.Runner
	fb  *fabric.Fabric
	det *detect.Detector
}

func (e liveExecutor) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	if err := e.dispatchDetections(ts); err != nil {
		return err
	}
	return e.r.SendUpdate(ts, peerAS, upd)
}

func (e liveExecutor) Inject(b *fabric.Batch) error {
	if err := e.dispatchDetections(b.Time); err != nil {
		return err
	}
	if err := e.r.Barrier(); err != nil {
		return err
	}
	return e.fb.Inject(b)
}

// dispatchDetections advances the detector's mitigation clock to now and
// sends every action it queued as a BGP UPDATE from the mitigation
// peer. Announcements carry the blackhole community and next hop, so
// the route server accepts and archives them exactly like
// operator-originated RTBH; the fabric then drops the victim's traffic
// from the next injected batch on (the barrier in Inject orders the
// announcement ahead of the traffic it protects against).
func (e liveExecutor) dispatchDetections(now time.Time) error {
	if e.det == nil {
		return nil
	}
	for _, a := range e.det.Tick(now) {
		upd := &bgp.Update{}
		p := bgp.HostPrefix(a.Victim)
		if a.Announce {
			upd.Attrs = bgp.PathAttrs{
				Origin:      bgp.OriginIGP,
				ASPath:      []uint32{detect.PeerASN},
				NextHop:     routeserver.BlackholeNextHop,
				Communities: bgp.Communities{bgp.Blackhole},
			}
			upd.NLRI = []bgp.Prefix{p}
		} else {
			upd.Withdrawn = []bgp.Prefix{p}
		}
		if err := e.r.SendUpdate(a.Time, detect.PeerASN, upd); err != nil {
			return err
		}
	}
	return nil
}

// analysisMeta builds the analyzer-side metadata directly from the
// planned world — the same values OpenDataset reconstructs from the
// dataset's metadata.json and side tables.
func analysisMeta(w *scenario.World) *analysis.Metadata {
	meta := &analysis.Metadata{
		SamplingRate: w.Cfg.SamplingRate,
		Start:        w.Cfg.Start,
		End:          w.Cfg.End(),
		MemberByMAC:  make(map[ipfix.MAC]uint32, len(w.Members)),
		BlackholeMAC: fabric.BlackholeMAC,
		InternalMACs: map[ipfix.MAC]bool{fabric.InternalMAC: true},
		IP2AS:        w.IP2AS,
		PDB:          w.PDB,
	}
	for _, m := range w.Members {
		meta.MemberByMAC[fabric.MemberMAC(m.ASN)] = m.ASN
	}
	return meta
}
