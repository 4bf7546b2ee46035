package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/events"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/load"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/pipeline"
	"repro/internal/analysis/usecase"
	"repro/internal/analysis/visibility"
	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/mrt"
	"repro/internal/radviz"
	"repro/internal/routeserver"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// The mirrors below re-run the program's top-level calls layer by layer
// through the same public functions, with a span around each call, so
// the traced run can attribute time without spans inside the program.
// Each mirror's output is checked against the call it mirrors, so a
// drift in rtbh.Simulate, composeReport or the live executor fails the
// traced run (and the package tests) instead of silently measuring
// something else.

// mirrorExecutor is a scenario.Executor over the route server and fabric
// that scenario.Run builds. With det and online set it also mirrors the
// live executor in-process: the detector ticks before every action, its
// announcements and withdrawals go straight to the route server, and
// every processed update and collected batch feeds the online analyzer.
type mirrorExecutor struct {
	tr     *tracer
	rs     *routeserver.Server
	fb     *fabric.Fabric
	det    *detect.Detector
	online *rtbh.OnlineAnalyzer

	process, inject, tick, observeUpdate int32
	ticks                                int64
}

func (e *mirrorExecutor) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	if err := e.dispatchDetections(ts); err != nil {
		return err
	}
	return e.deliver(ts, peerAS, upd)
}

func (e *mirrorExecutor) Inject(b *fabric.Batch) error {
	if err := e.dispatchDetections(b.Time); err != nil {
		return err
	}
	e.tr.begin(e.inject)
	err := e.fb.Inject(b)
	e.tr.end()
	return err
}

// deliver is the live path's delivery step: the route server processes
// the update, then the analyzer observes it.
func (e *mirrorExecutor) deliver(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	e.tr.begin(e.process)
	_, err := e.rs.Process(ts, peerAS, upd)
	e.tr.end()
	if err != nil || e.online == nil {
		return err
	}
	e.tr.begin(e.observeUpdate)
	e.online.ObserveUpdate(ts, peerAS, upd)
	e.tr.end()
	return nil
}

// dispatchDetections mirrors the live executor's: advance the detector's
// clock and send each queued action as an UPDATE from its peer.
func (e *mirrorExecutor) dispatchDetections(now time.Time) error {
	if e.det == nil {
		return nil
	}
	e.tr.begin(e.tick)
	acts := e.det.Tick(now)
	e.tr.end()
	e.ticks++
	for _, a := range acts {
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
		if err := e.deliver(a.Time, detect.PeerASN, upd); err != nil {
			return err
		}
	}
	return nil
}

// driveResult is what a mirrored drive produced.
type driveResult struct {
	records int64
	msgs    int
	ticks   int64
}

// driveMirror drives the planned world through a mirrorExecutor, writing
// the MRT and IPFIX archives into dir exactly as rtbh.Simulate does (and,
// with det and online set, as rtbh.LiveRun's collector does), and
// registers the route server's and fabric's metrics on reg. Spans:
// scenario.drive (its self time is generation, day ordering and control
// build), routeserver.process, fabric.inject, mrt.encode, ipfix.encode,
// and in closed-loop mode detect.tick, detect.observe and
// online.observe.
func driveMirror(tr *tracer, w *scenario.World, dir string, det *detect.Detector, online *rtbh.OnlineAnalyzer, reg *rtbh.MetricsRegistry) (*driveResult, error) {
	mrtFile, err := os.Create(filepath.Join(dir, rtbh.FileUpdates))
	if err != nil {
		return nil, err
	}
	defer mrtFile.Close()
	flowFile, err := os.Create(filepath.Join(dir, rtbh.FileFlows))
	if err != nil {
		return nil, err
	}
	defer flowFile.Close()
	mrtW := mrt.NewWriter(mrtFile)
	flowW := ipfix.NewWriter(flowFile, 1)

	mrtEncode, ipfixEncode := tr.id("mrt.encode"), tr.id("ipfix.encode")
	detectObserve, onlineObserve := tr.id("detect.observe"), tr.id("online.observe")
	ex := &mirrorExecutor{
		tr: tr, det: det, online: online,
		process:       tr.id("routeserver.process"),
		inject:        tr.id("fabric.inject"),
		tick:          tr.id("detect.tick"),
		observeUpdate: onlineObserve,
	}
	res := &driveResult{}
	err = tr.do("scenario.drive", func() error {
		_, err := scenario.Drive(w, func(fabricRNG *stats.RNG) (scenario.Executor, error) {
			rs, err := scenario.NewRouteServer(w)
			if err != nil {
				return nil, err
			}
			if det != nil {
				if err := rs.AddPeer(routeserver.Peer{
					ASN:    detect.PeerASN,
					IP:     w.RSIP + 0xFFFD,
					Policy: routeserver.DefaultPolicy(),
				}); err != nil {
					return nil, err
				}
			}
			rs.SetCollector(func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
				rec := mrt.Record{
					Timestamp: ts, PeerAS: peerAS, LocalAS: uint32(w.RSASN),
					PeerIP: peerIP, LocalIP: w.RSIP, Message: msg,
				}
				tr.begin(mrtEncode)
				_ = mrtW.WriteRecord(&rec) // errors surface at Flush
				tr.end()
			})
			fb, err := fabric.New(rs, w.Cfg.SamplingRate, fabricRNG, func(b *ipfix.RecordBatch) error {
				res.records += int64(b.Len())
				tr.begin(ipfixEncode)
				err := flowW.WriteBatch(b)
				tr.end()
				if err != nil {
					return err
				}
				if online != nil {
					tr.begin(onlineObserve)
					online.ObserveFlowBatch(b)
					tr.end()
				}
				if det != nil {
					tr.begin(detectObserve)
					det.ObserveFlowBatch(b)
					tr.end()
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			fb.ClockOffset = w.Cfg.ClockOffset
			rs.RegisterMetrics(reg)
			fb.RegisterMetrics(reg)
			ex.rs, ex.fb = rs, fb
			return ex, nil
		})
		if err != nil {
			return err
		}
		// The live run's closing tick at the end of the scenario clock.
		return ex.dispatchDetections(w.Cfg.End())
	})
	if err != nil {
		return nil, err
	}
	err = tr.do("archive.flush", func() error {
		if err := mrtW.Flush(); err != nil {
			return err
		}
		return flowW.Flush()
	})
	if err != nil {
		return nil, err
	}
	res.msgs = ex.rs.MessagesProcessed()
	res.ticks = ex.ticks
	return res, nil
}

// mirrored is what analyzeMirror produced.
type mirrored struct {
	report *rtbh.Report
	text   string
	// passMallocs counts heap allocations during the IPFIX read and
	// observe pass.
	passMallocs uint64
}

// analyzeMirror replays Dataset.Analyze's sequential path (Workers=1)
// with spans: pipeline.build, the IPFIX read pass ipfix.decode with one
// pipeline.observe span per batch inside it, every compose section, and
// textreport.render.
func analyzeMirror(tr *tracer, ds *rtbh.Dataset, opts rtbh.Options) (*mirrored, error) {
	var p *pipeline.Pipeline
	err := tr.do("pipeline.build", func() error {
		var err error
		if p, err = pipeline.New(ds.Meta, ds.Updates, opts.Delta); err != nil {
			return err
		}
		p.BindFlow(mitigation.NewIndex(ds.FlowUpdates, ds.Meta.End))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	observe := tr.id("pipeline.observe")
	err = tr.do("ipfix.decode", func() error {
		return ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
			tr.begin(observe)
			p.ObserveBatch(b)
			tr.end()
			return nil
		})
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	var rep *rtbh.Report
	_ = tr.do("compose.total", func() error {
		rep = composeMirror(tr, ds.Meta, ds.Updates, p, opts)
		return nil
	})
	var text string
	_ = tr.do("textreport.render", func() error {
		text = rendered(rep)
		return nil
	})
	return &mirrored{report: rep, text: text, passMallocs: after.Mallocs - before.Mallocs}, nil
}

// composeMirror is composeReport (report.go) section by section, in its
// order, each section one span. The package tests check it renders
// byte-identical to Dataset.Analyze.
func composeMirror(tr *tracer, meta *analysis.Metadata, updates []analysis.ControlUpdate, p *pipeline.Pipeline, opts rtbh.Options) *rtbh.Report {
	r := &rtbh.Report{
		TotalRecords:      p.TotalRecords,
		InternalRecords:   p.InternalRecords,
		AttributedRecords: p.FinalAttributed(),
		DroppedRecords:    p.DroppedRecords,
		Events:            p.Events,
	}
	section := func(name string, fn func()) {
		tr.begin(tr.id(name))
		fn()
		tr.end()
	}

	section("compose.fig3", func() { r.Fig3 = load.Compute(updates, meta.Start, meta.End) })
	section("compose.fig4", func() {
		peers := make([]uint32, 0, len(meta.MemberByMAC))
		for _, asn := range meta.MemberByMAC {
			peers = append(peers, asn)
		}
		r.Fig4 = visibility.Compute(updates, peers, meta.Start, meta.End, opts.VisibilityInterval)
	})
	section("compose.fig10", func() {
		if len(opts.SweepDeltas) > 0 {
			r.Fig10, r.Fig10LowerBound = events.Sweep(updates, opts.SweepDeltas, meta.End)
		}
	})
	section("compose.fig2", func() { r.Fig2 = p.Align.Estimate(opts.OffsetStep) })
	section("compose.drop", func() {
		r.Fig5 = p.Drop.ByLength()
		r.Fig5AvgPkts, r.Fig5AvgBytes = p.Drop.AverageDropRate()
		r.Fig6Slash24 = p.Drop.DropRateCDF(24, opts.MinEventPkts)
		r.Fig6Slash32 = p.Drop.DropRateCDF(32, opts.MinEventPkts)
		r.EventDrops = p.Drop.EventStats()
		r.Fig7 = p.Drop.TopSources(opts.TopSources)
		r.Fig7Classes = p.Drop.ClassifyTopSources(opts.TopSources)
		r.Fig8 = p.Drop.TypesOfTopSources(opts.TopSources, meta.PDB)
	})

	var anomalyAndDataIDs []int
	section("compose.anomaly", func() {
		r.Verdicts = p.Anomaly.AnalyzeScaled(p.Events, meta.End, opts.Threshold, meta.MagnitudeScale())
		r.Table2 = anomaly.Classify(r.Verdicts)
		lastMax, withPreData := 0, 0
		for i := range r.Verdicts {
			v := &r.Verdicts[i]
			if v.HasPreData {
				withPreData++
				r.Fig11PreDataSlots = append(r.Fig11PreDataSlots, v.PreDataSlots)
			} else {
				r.Fig11NoData++
			}
			r.Fig12 = append(r.Fig12, v.Anomalies...)
			for f := range v.AmpFactor {
				if v.AmpFactor[f] > 0 {
					r.Fig13[f] = append(r.Fig13[f], v.AmpFactor[f])
				}
			}
			if v.AmpFactor[anomaly.FeatPackets] > 0 && v.LastSlotIsMax {
				lastMax++
			}
			if v.HasEventData {
				r.EventsWithData++
				if v.Within10Min {
					r.AnomalyAndData++
					anomalyAndDataIDs = append(anomalyAndDataIDs, v.EventID)
				}
			}
		}
		if withPreData > 0 {
			r.Fig13LastSlotMax = float64(lastMax) / float64(withPreData)
		}
	})
	section("compose.proto", func() {
		r.ProtoShares = p.Proto.Shares(anomalyAndDataIDs)
		r.Table3, r.Table3Events = p.Proto.ProtocolCountDist(anomalyAndDataIDs)
		r.Fig14 = p.Proto.FilterableShares(anomalyAndDataIDs)
		r.Fig14FullyFilterable = p.Proto.FullyFilterableShare(anomalyAndDataIDs)
		r.Fig15Origin = p.Proto.OriginParticipation(anomalyAndDataIDs)
		r.Fig15Handover = p.Proto.HandoverParticipation(anomalyAndDataIDs)
		r.Fig15Scale = p.Proto.Scale(anomalyAndDataIDs)
	})
	var profiles []hosts.Profile
	section("compose.hosts", func() {
		profiles = p.ComposeProfiles(opts.MinActiveDays)
		r.Whitelist = p.ComposeWhitelist(opts.MinActiveDays)
		r.Fig17 = profiles
		proj := radviz.New(hosts.NumFeatures)
		for i := range profiles {
			r.Fig16 = append(r.Fig16, proj.Project(profiles[i].Features[:]))
		}
		r.Table4 = hosts.Types(profiles, meta.IP2AS, meta.PDB)
	})
	section("compose.fig18", func() { r.Fig18 = p.ComposeCollateral(profiles).Result() })
	section("compose.fig19", func() { r.Fig19 = usecase.Classify(p.Events, r.Verdicts, meta.End) })
	section("compose.table5", func() { r.Table5 = p.Mit.Compose() })
	return r
}

// fileDigest hashes a file's contents.
func fileDigest(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// sameArchives compares the MRT and IPFIX archives of two dataset
// directories.
func sameArchives(a, b string) error {
	for _, f := range []string{rtbh.FileUpdates, rtbh.FileFlows} {
		x, err := fileDigest(filepath.Join(a, f))
		if err != nil {
			return err
		}
		y, err := fileDigest(filepath.Join(b, f))
		if err != nil {
			return err
		}
		if x != y {
			return fmt.Errorf("%s differs", f)
		}
	}
	return nil
}

// firstDetectionAgreement is the share of victims, over those either
// log detected, that both logs first detected at the same time. The
// closed loop and a live run agree only up to the first announcement the
// live detector sends late: its view of the flow stream lags the scenario
// clock by however far the collector is behind, and a blackhole that
// starts at a different moment changes the fabric's drop decisions and
// with them every later draw of its sampling randomness.
func firstDetectionAgreement(a, b []detect.Detection) float64 {
	first := func(ds []detect.Detection) map[uint32]time.Time {
		m := map[uint32]time.Time{}
		for _, d := range ds {
			if t, ok := m[d.Victim]; !ok || d.DetectedAt.Before(t) {
				m[d.Victim] = d.DetectedAt
			}
		}
		return m
	}
	fa, fb := first(a), first(b)
	union, same := len(fb), 0
	for v, t := range fa {
		u, ok := fb[v]
		if !ok {
			union++
		} else if t.Equal(u) {
			same++
		}
	}
	return per(float64(same), float64(union), 1)
}
