package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/detect"
	"repro/internal/fabric"
	"repro/internal/scenario"
)

// The traced run measures the program through mirrors of its top-level
// calls. These tests pin each mirror to the call it mirrors at test
// scale, so a change to rtbh.Simulate, composeReport or the live
// executor that the mirrors do not follow fails here.

func smallConfig(policy string) rtbh.Config {
	c := rtbh.TestConfig()
	c.Days = 10
	c.EventsTotal = 300
	c.UniqueVictims = 150
	c.MitigationPolicy = policy
	return c
}

func TestDriveMirrorWritesSimulateArchives(t *testing.T) {
	for _, policy := range []string{"", "escalate"} {
		cfg := smallConfig(policy)
		ref, mir := t.TempDir(), t.TempDir()
		sum, err := rtbh.Simulate(cfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		w, err := scenario.Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		dr, err := driveMirror(tr, w, mir, nil, nil, rtbh.NewMetricsRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameArchives(ref, mir); err != nil {
			t.Errorf("policy %q: %v", policy, err)
		}
		if dr.records != sum.FlowRecords || dr.msgs != sum.ControlMsgs {
			t.Errorf("policy %q: mirror %d records/%d msgs, Simulate %d/%d",
				policy, dr.records, dr.msgs, sum.FlowRecords, sum.ControlMsgs)
		}
	}
}

func TestComposeMirrorRendersAnalyze(t *testing.T) {
	for _, policy := range []string{"", "escalate"} {
		dir := t.TempDir()
		if _, err := rtbh.Simulate(smallConfig(policy), dir); err != nil {
			t.Fatal(err)
		}
		want, err := analyzeDir(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := rtbh.OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := analyzeMirror(newTracer(), ds, rtbh.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got.text != want.text {
			t.Errorf("policy %q: section-by-section compose renders differently from Analyze", policy)
		}
	}
}

// TestClosedLoopMatchesItsArchive runs the in-process closed loop and
// checks that its analyzer's final report equals Analyze of the archives
// it wrote (the live path's parity contract), and that its detector
// clears the repository's precision/recall bar.
func TestClosedLoopMatchesItsArchive(t *testing.T) {
	cfg := smallConfig("")
	dir := t.TempDir()
	// Simulate writes the side tables of the same world; the loop then
	// replaces both archives with its own.
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := scenario.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := detect.New(detect.Config{
		SamplingRate: w.Cfg.SamplingRate,
		BlackholeMAC: fabric.BlackholeMAC,
		TrafficScale: w.Cfg.Scale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	online := rtbh.NewOnlineAnalyzer(ds.Meta)
	dr, err := driveMirror(newTracer(), w, dir, det, online, rtbh.NewMetricsRegistry())
	if err != nil {
		t.Fatal(err)
	}
	final, err := online.Final(rtbh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := analyzeDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rendered(final) != want.text {
		t.Error("closed-loop analyzer's final report differs from Analyze of its archives")
	}
	if final.TotalRecords != dr.records {
		t.Errorf("analyzer saw %d records, loop drove %d", final.TotalRecords, dr.records)
	}
	lr, err := rtbh.NewLiveRun(cfg, filepath.Join(t.TempDir(), "unused"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := detect.Evaluate(det.Status().Detections, lr.AttackTruth(), detect.DefaultWindow)
	if ev.Detections == 0 || ev.Precision < 0.9 || ev.Recall < 0.8 {
		t.Errorf("closed loop: %d detections, precision %.3f recall %.3f", ev.Detections, ev.Precision, ev.Recall)
	}
}

func TestTracerSelfTimesAccountForRoot(t *testing.T) {
	tr := newTracer()
	tr.begin(tr.id("root"))
	for i := 0; i < 3; i++ {
		_ = tr.do("child", func() error {
			_ = tr.do("grandchild", func() error { time.Sleep(time.Millisecond); return nil })
			time.Sleep(time.Millisecond)
			return nil
		})
	}
	tr.end()
	agg := tr.aggregate()
	var own time.Duration
	for _, a := range agg {
		own += a.own
	}
	if own != agg["root"].total {
		t.Errorf("self times sum to %v, root span is %v", own, agg["root"].total)
	}
	if agg["child"].count != 3 || agg["child"].own >= agg["child"].total {
		t.Errorf("child: %+v", *agg["child"])
	}
}

func TestFirstDetectionAgreement(t *testing.T) {
	at := func(m int) time.Time { return time.Date(2018, 10, 1, 0, m, 0, 0, time.UTC) }
	a := []detect.Detection{{Victim: 1, DetectedAt: at(1)}, {Victim: 2, DetectedAt: at(2)}, {Victim: 1, DetectedAt: at(9)}}
	b := []detect.Detection{{Victim: 1, DetectedAt: at(1)}, {Victim: 2, DetectedAt: at(3)}, {Victim: 3, DetectedAt: at(4)}}
	if got := firstDetectionAgreement(a, b); got != 1.0/3 {
		t.Errorf("agreement %v, want 1/3", got)
	}
	if got := firstDetectionAgreement(a, a); got != 1 {
		t.Errorf("self agreement %v, want 1", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics a run prints equal to
// the ones BENCHMARK.json declares, names and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	e := newEnv("ctl-heavy", 1, time.Second, t.TempDir(), t.TempDir())
	e.endToEnd(&measured{})
	if len(e.metrics) != len(decl.EndToEnd) {
		t.Errorf("runs print %d end-to-end metrics, BENCHMARK.json declares %d", len(e.metrics), len(decl.EndToEnd))
	}
	for _, m := range decl.EndToEnd {
		if got, ok := e.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayer) != len(decl.PerLayer) {
		t.Fatalf("traced runs print %d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(decl.PerLayer))
	}
	for i, m := range decl.PerLayer {
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer %d: printed %s (%s), declared %s (%s)", i, perLayer[i].name, perLayer[i].unit, m.Name, m.Unit)
		}
	}
}
