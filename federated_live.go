package rtbh

import (
	"context"
	"fmt"
	"net"

	"repro/internal/faultnet"
	"repro/internal/federation"
)

// FederatedLiveRun is the live-mode counterpart of SimulateFederated:
// a LiveRun across cfg.IXPs exchanges, each with its own route server,
// fabric and live transports — every control update crosses that
// exchange's BGP-over-TCP sessions, every sampled flow record its
// IPFIX-over-UDP export — and its own OnlineAnalyzer, writing a
// standalone dataset into dir/ixp<i>.
//
// After Run, Report reduces each analyzer to a federation snapshot and
// ships it over the federation TCP transport to an in-process
// coordinator, exactly as distributed instances would; the merged
// report is identical to AnalyzeFederated over the written archives
// (see DESIGN.md, "Federation").
type FederatedLiveRun struct {
	*LiveRun
	snapPlan *faultnet.Plan
}

// NewFederatedLiveRun is NewLiveRun over the per-exchange directories
// dir/ixp<i>. When reg is non-nil, exchange 0 registers its transport,
// route-server, fabric and analyzer metrics on it (one exchange only —
// the metric names are global).
func NewFederatedLiveRun(cfg Config, dir string, reg *MetricsRegistry) (*FederatedLiveRun, error) {
	lr, err := newLiveRun(cfg, federatedDirs(cfg, dir), reg)
	if err != nil {
		return nil, err
	}
	return &FederatedLiveRun{LiveRun: lr}, nil
}

// EnableSnapshotChaos arms a fault-injection plan on the snapshot
// transport alone: every federation.Send from Report dials through the
// profile's connection middleware, so snapshot frames are truncated and
// connections cut deterministically while the coordinator still
// converges through retransmits and Seq dedup. Call before Report.
func (flr *FederatedLiveRun) EnableSnapshotChaos(seed uint64, profile string) error {
	p, err := faultnet.ParseProfile(profile)
	if err != nil {
		return err
	}
	flr.snapPlan = faultnet.NewPlan(seed, p)
	return nil
}

// Run is LiveRun.Run reporting each exchange's volumes: it writes one
// standalone dataset per exchange into dir/ixp<i> — the same files
// SimulateFederated writes, byte-identical for the same Config.
func (flr *FederatedLiveRun) Run(ctx context.Context) (*FederatedSummary, error) {
	res, err := flr.run(ctx)
	if err != nil {
		return nil, err
	}
	return federatedSummary(res), nil
}

// Report federates the online analyzers: each exchange's state is
// reduced to a snapshot (OnlineAnalyzer.FederationState), shipped over
// the federation TCP transport to an in-process coordinator — through
// the snapshot-chaos middleware when armed — and merged. The cross-IXP
// view re-streams the flow archives Run wrote. Call after Run; the
// result is identical to AnalyzeFederated over the same directories.
func (flr *FederatedLiveRun) Report(opts Options) (*FederatedReport, error) {
	if !flr.ran {
		return nil, fmt.Errorf("rtbh: federated live run has not executed")
	}
	meta := analysisMeta(flr.w)
	coord := federation.NewCoordinator(meta, opts.Delta)
	srv, err := federation.Serve("127.0.0.1:0", coord)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	attempts := 3
	for i, ix := range flr.ixps {
		snap, err := ix.analyzer.FederationState(i, 1, flr.fed.ClockOffsets[i])
		if err != nil {
			return nil, err
		}
		var wrap func(c net.Conn) net.Conn
		if flr.snapPlan != nil {
			// Each exchange's snapshot stream draws its own deterministic
			// schedule; the reset-free progress guarantee bounds retries.
			wrap = flr.snapPlan.TCP(uint32(i)).Wrap
			attempts = 6
		}
		if err := federation.Send(srv.Addr(), snap, wrap, attempts); err != nil {
			return nil, err
		}
	}
	if got := coord.Snapshots(); got != flr.fed.N {
		return nil, fmt.Errorf("rtbh: coordinator holds %d snapshots, want %d", got, flr.fed.N)
	}
	merged, err := coord.Merge()
	if err != nil {
		return nil, err
	}

	datasets := make([]*Dataset, flr.fed.N)
	for i, ix := range flr.ixps {
		ds, err := OpenDataset(ix.dir)
		if err != nil {
			return nil, err
		}
		datasets[i] = ds
	}
	return composeFederatedReport(merged, datasets, opts)
}
