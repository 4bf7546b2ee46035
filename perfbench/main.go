// Command perfbench is the repository's benchmark. One run measures one
// named workload for a fixed time from a seed, checks the program's
// outputs against the repository's own equivalence invariants, prints a
// human-readable table of what it measured, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 a
// separate traced run reports the per-layer metrics, timed by spans the
// benchmark records around its own calls into each layer (see README.md).
//
// Build and run through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload ctl-heavy --seed 1 --seconds 45 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv carries one run's parameters and accumulates its outcome.
type runEnv struct {
	workload string
	seed     uint64
	seconds  time.Duration
	work     string // scratch directory for datasets, removed at exit
	traceDir string
	nproc    int

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	// extra holds further measurements printed in the table but not in
	// the JSON result (per-workload numbers outside the metric set).
	extra map[string]metric
}

// op records one attempted operation; a non-nil err counts it as failed.
func (e *runEnv) op(err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		e.problems = append(e.problems, err.Error())
		return false
	}
	return true
}

// check records one output check as an operation.
func (e *runEnv) check(ok bool, format string, args ...any) bool {
	if ok {
		return e.op(nil)
	}
	return e.op(fmt.Errorf("check failed: "+format, args...))
}

func (e *runEnv) set(name string, v float64, unit string) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

// info records the latest value of an informational measurement.
func (e *runEnv) info(name string, v float64, unit string) {
	e.extra[name] = metric{Value: v, Unit: unit}
}

// serveInfo adds the looking-glass query statistics to the table.
func (e *runEnv) serveInfo(qs []query) {
	for n, m := range serveStats(qs) {
		e.extra[n] = m
	}
}

func newEnv(workload string, seed uint64, seconds time.Duration, work, traceDir string) *runEnv {
	return &runEnv{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		work:     work,
		traceDir: traceDir,
		nproc:    runtime.GOMAXPROCS(0),
		metrics:  map[string]metric{},
		extra:    map[string]metric{},
	}
}

// liveLayers are the per-layer metric prefixes only a live run produces.
var liveLayers = []string{"live.", "online.", "detect.", "serve.", "loadgen.",
	"obs.live.", "obs.online.", "obs.detect.", "obs.serve."}

// withLiveLayers runs the live-serve traced run in the same process and
// takes its live, online, detect and serve layers into e's result, with
// its operations and failures. live-serve is not a workload of
// BENCHMARK.json (its end-to-end figures vary too much between runs on a
// shared host to be gated; see README.md), so data-heavy's traced run
// carries those layers.
func withLiveLayers(e *runEnv) error {
	le := newEnv("live-serve", e.seed, e.seconds, e.work, e.traceDir)
	if err := traceLiveServe(le); err != nil {
		return err
	}
	e.attempted += le.attempted
	e.failed += le.failed
	e.problems = append(e.problems, le.problems...)
	for name, m := range le.metrics {
		for _, p := range liveLayers {
			if strings.HasPrefix(name, p) {
				e.metrics[name] = m
			}
		}
	}
	for name, m := range le.extra {
		e.extra["live-serve."+name] = m
	}
	return nil
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(*runEnv) error
}{
	"ctl-heavy": {
		run:   func(e *runEnv) error { return runBatch(e, ctlHeavyConfig) },
		trace: func(e *runEnv) error { return traceBatch(e, ctlHeavyConfig) },
	},
	"data-heavy": {
		run: func(e *runEnv) error { return runBatch(e, dataHeavyConfig) },
		trace: func(e *runEnv) error {
			if err := traceBatch(e, dataHeavyConfig); err != nil {
				return err
			}
			return withLiveLayers(e)
		},
	},
	"live-serve": {run: runLiveServe, trace: traceLiveServe},
}

func main() {
	root := flag.String("root", ".", "repository root; scratch files go under ROOT/.bench_build")
	name := flag.String("workload", "", "workload: ctl-heavy, data-heavy or live-serve")
	seed := flag.Uint64("seed", 1, "workload seed (the scenario seed of the simulated world)")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload ctl-heavy|data-heavy|live-serve, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	build := filepath.Join(*root, ".bench_build")
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env := newEnv(*name, *seed, time.Duration(*seconds)*time.Second, work, filepath.Join(build, "traces"))
	run := wl.run
	if *trace == 1 {
		run = wl.trace
	}
	err = run(env)
	os.RemoveAll(work)
	if err != nil {
		// A run that could not measure at all prints no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range env.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d operations, %d failed (GOMAXPROCS %d, %s)\n",
		*name, *seed, *trace, env.attempted, env.failed, env.nproc, runtime.Version())
	writeTable(w, "", env.metrics)
	writeTable(w, "(info) ", env.extra)
	res := result{
		Correct:   env.failed == 0 && env.attempted > 0,
		Attempted: env.attempted,
		Failed:    env.failed,
		Metrics:   env.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

func writeTable(w io.Writer, tag string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %s%-32s %14s %s\n", tag, n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// resetPeakRSS returns freed heap to the operating system and restarts
// the process's peak resident set size (VmHWM) from the current one, so
// the next peakRSSMB covers only what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timing is one timed call: its wall time, the CPU time the whole
// process (every thread, the runtime's included) spent meanwhile, and
// the time the host stole from the machine's virtual CPUs meanwhile.
type timing struct{ wall, cpu, steal time.Duration }

// run is the call's wall time less its share of stolen time. The busy
// virtual CPUs spent cpu running this process and steal waiting for the
// host, so the call ran for the share cpu/(cpu+steal) of its wall time;
// on an unshared machine steal is zero and run equals wall.
func (t timing) run() time.Duration {
	if t.cpu <= 0 || t.steal <= 0 {
		return t.wall
	}
	return time.Duration(float64(t.wall) * float64(t.cpu) / float64(t.cpu+t.steal))
}

// startTiming starts a timing; the returned function ends it.
func startTiming() func() timing {
	c, st, t := processCPU(), stealTime(), time.Now()
	return func() timing {
		return timing{wall: time.Since(t), cpu: processCPU() - c, steal: stealTime() - st}
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the machine's total stolen time, the eighth field of
// the cpu line of /proc/stat, in clock ticks of 10ms (0 if unavailable).
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// keepGoing reports whether another iteration fits in the measured
// window: at least one always runs, and another starts only if one more
// of the median length ends within it.
func keepGoing(start time.Time, window time.Duration, iters []time.Duration) bool {
	if len(iters) == 0 {
		return true
	}
	ds := make([]float64, len(iters))
	for i, d := range iters {
		ds[i] = float64(d)
	}
	return time.Since(start)+time.Duration(median(ds)) <= window
}
