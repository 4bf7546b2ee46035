package rtbh

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/mrt"
	"repro/internal/scenario"
)

// Dataset file names inside a dataset directory.
const (
	FileUpdates  = "updates.mrt"
	FileFlows    = "flows.ipfix"
	FileMetadata = "metadata.json"
	FileIP2AS    = "ip2as.json"
	FilePDB      = "peeringdb.json"
	FileTruth    = "truth.json"
)

// SimulationSummary reports what a simulation produced.
type SimulationSummary struct {
	Events         int
	Hosts          int
	Members        int
	ControlMsgs    int
	Announcements  int
	Withdrawals    int
	FlowRecords    int64
	PacketsIn      int64
	PacketsDropped int64
}

// datasetMeta is the JSON schema of metadata.json: everything an analyst
// legitimately has (no ground truth).
type datasetMeta struct {
	SamplingRate int64     `json:"sampling_rate"`
	Start        time.Time `json:"start"`
	End          time.Time `json:"end"`
	// TrafficScale is the traffic-magnitude multiplier the world was
	// simulated at; analysis thresholds calibrated to scale 1 derive
	// from it. Omitted (0) means 1, so scale-1 metadata is byte-identical
	// to metadata written before the knob existed.
	TrafficScale float64      `json:"traffic_scale,omitempty"`
	BlackholeMAC ipfix.MAC    `json:"blackhole_mac"`
	InternalMACs []ipfix.MAC  `json:"internal_macs"`
	RSASN        uint16       `json:"rs_asn"`
	Members      []memberMeta `json:"members"`
}

type memberMeta struct {
	ASN uint32    `json:"asn"`
	MAC ipfix.MAC `json:"mac"`
}

// Simulate plans and runs the world described by cfg and writes the
// dataset into dir (created if missing): the MRT control-plane archive,
// the IPFIX flow archive, metadata, the IP-to-AS table, the PeeringDB
// snapshot, and the ground truth.
func Simulate(cfg Config, dir string) (*SimulationSummary, error) {
	return SimulateObserved(cfg, dir, nil)
}

// SimulateObserved is Simulate with observability: when reg is non-nil
// the route server and fabric register their metrics ("routeserver.*",
// "fabric.*") on it. Snapshot after the call returns; the fabric's
// ground-truth gauges match the returned summary exactly.
func SimulateObserved(cfg Config, dir string, reg *MetricsRegistry) (*SimulationSummary, error) {
	res, err := simulate(cfg, []string{dir}, reg)
	if err != nil {
		return nil, err
	}
	return simulationSummary(res), nil
}

// simulate plans the world described by cfg and runs it across one
// exchange per directory, writing each exchange's standalone dataset
// into its directory. When reg is non-nil, exchange 0's route server and
// fabric register their metrics on it.
func simulate(cfg Config, dirs []string, reg *MetricsRegistry) (*scenario.Result, error) {
	w, err := scenario.Plan(cfg)
	if err != nil {
		return nil, err
	}
	dss := make([]*datasetWriter, len(dirs))
	defer func() {
		for _, ds := range dss {
			if ds != nil {
				ds.close()
			}
		}
	}()
	sinks := make([]scenario.Sinks, len(dirs))
	for i, dir := range dirs {
		if dss[i], err = createDataset(w, dir); err != nil {
			return nil, err
		}
		// The run aborts on the first sink error via the flow sink;
		// control write errors surface when the dataset is finished.
		sinks[i] = scenario.Sinks{Control: dss[i].collect, Flow: dss[i].flows.WriteBatch}
	}
	sinks[0].Metrics = reg
	res, err := scenario.Run(w, sinks...)
	if err != nil {
		return nil, err
	}
	for _, ds := range dss {
		if err := ds.finish(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// simulationSummary reports a single-exchange run.
func simulationSummary(res *scenario.Result) *SimulationSummary {
	w, x := res.World, res.IXPs[0]
	return &SimulationSummary{
		Events:         len(w.Events),
		Hosts:          len(w.Hosts),
		Members:        len(w.Members),
		ControlMsgs:    x.ControlMsgs,
		Announcements:  res.Announcements,
		Withdrawals:    res.Withdrawals,
		FlowRecords:    x.FlowRecords,
		PacketsIn:      x.FabricStats.PacketsIn,
		PacketsDropped: x.FabricStats.PacketsDropped,
	}
}

// datasetWriter writes one exchange's dataset directory: the MRT and
// IPFIX archives while the run streams, then the side files.
type datasetWriter struct {
	w                 *scenario.World
	dir               string
	mrtFile, flowFile *os.File
	updates           *mrt.Writer
	flows             *ipfix.Writer
}

// createDataset creates dir if missing and opens its two archives.
func createDataset(w *scenario.World, dir string) (*datasetWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	mrtFile, err := os.Create(filepath.Join(dir, FileUpdates))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	flowFile, err := os.Create(filepath.Join(dir, FileFlows))
	if err != nil {
		mrtFile.Close()
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	return &datasetWriter{
		w: w, dir: dir, mrtFile: mrtFile, flowFile: flowFile,
		updates: mrt.NewWriter(mrtFile),
		flows:   ipfix.NewWriter(flowFile, 1),
	}, nil
}

// collect is the route server's collector hook: it archives each BGP
// message as an MRT record. Write errors surface at finish.
func (ds *datasetWriter) collect(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
	rec := mrt.Record{
		Timestamp: ts, PeerAS: peerAS, LocalAS: uint32(ds.w.RSASN),
		PeerIP: peerIP, LocalIP: ds.w.RSIP, Message: msg,
	}
	_ = ds.updates.WriteRecord(&rec)
}

// finish flushes and closes both archives and writes the four side
// files.
func (ds *datasetWriter) finish() error {
	if err := ds.updates.Flush(); err != nil {
		return fmt.Errorf("rtbh: flushing MRT in %s: %w", ds.dir, err)
	}
	if err := ds.flows.Flush(); err != nil {
		return fmt.Errorf("rtbh: flushing IPFIX in %s: %w", ds.dir, err)
	}
	if err := ds.mrtFile.Close(); err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	if err := ds.flowFile.Close(); err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	w := ds.w
	if err := writeJSON(filepath.Join(ds.dir, FileMetadata), metaOf(w)); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(ds.dir, FileIP2AS), w.IP2AS.WriteJSON); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(ds.dir, FilePDB), w.PDB.WriteJSON); err != nil {
		return err
	}
	return writeFile(filepath.Join(ds.dir, FileTruth), scenario.Truth(w).WriteJSON)
}

// close releases the archive files on every path; after finish it is a
// harmless second close.
func (ds *datasetWriter) close() {
	ds.mrtFile.Close()
	ds.flowFile.Close()
}

func metaOf(w *scenario.World) datasetMeta {
	m := datasetMeta{
		SamplingRate: w.Cfg.SamplingRate,
		Start:        w.Cfg.Start,
		End:          w.Cfg.End(),
		BlackholeMAC: fabric.BlackholeMAC,
		InternalMACs: []ipfix.MAC{fabric.InternalMAC},
		RSASN:        w.RSASN,
	}
	if s := w.Cfg.Scale(); s != 1 {
		m.TrafficScale = s
	}
	for _, mem := range w.Members {
		m.Members = append(m.Members, memberMeta{ASN: mem.ASN, MAC: fabric.MemberMAC(mem.ASN)})
	}
	return m
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("rtbh: writing %s: %w", path, err)
	}
	return f.Close()
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("rtbh: writing %s: %w", path, err)
	}
	return f.Close()
}
