// Command perfbench is the repository's benchmark. It drives the mir
// library, and a real mird process over loopback HTTP, through their
// public entry points on one of four seeded workloads, checks every
// answer, and prints one JSON result line. README.md describes the
// workloads, the metrics, and which end-to-end metric each per-layer
// metric should move.
//
// run.sh builds it and mird from the checkout and runs it:
//
//	bash perfbench/run.sh --workload region-d3 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	mird     string // mird binary, for the standing workload
	workDir  string // generated inputs, daemon logs and detail records
	commit   string
}

// workloads maps each workload to its runner. Every runner uses the
// library's default Options, so the benchmark measures what callers get.
var workloads = map[string]func(config) (*report, error){
	"region-d3": func(c config) (*report, error) { return runRegion(c, regionD3) },
	"region-d2": func(c config) (*report, error) { return runRegion(c, regionD2) },
	"influence": runInfluence,
	"standing":  runStanding,
}

// maxRunTime bounds one run, below the 180 s a run may take.
const maxRunTime = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	watchdog := time.AfterFunc(maxRunTime, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", maxRunTime)
		stopAllDaemons()
		os.Exit(1)
	})
	defer watchdog.Stop()
	defer stopAllDaemons()

	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := rep.result(cfg)
	if err == nil {
		err = rep.writeDetail(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func parseFlags(args []string) (config, error) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.mird, "mird", "", "mird binary (standing workload)")
	fs.StringVar(&cfg.workDir, "workdir", "", "directory for generated inputs, logs and detail records")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source commit, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case workloads[cfg.workload] == nil:
		return cfg, fmt.Errorf("unknown workload %q, want one of %s", cfg.workload, strings.Join(names, ", "))
	case !(*secs > 0 && *secs <= 60):
		return cfg, fmt.Errorf("-seconds %v out of range (0, 60]", *secs)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("-trace %d, want 0 or 1", *trace)
	case cfg.workDir == "":
		return cfg, fmt.Errorf("-workdir is required")
	case cfg.workload == "standing" && cfg.mird == "":
		return cfg, fmt.Errorf("the standing workload needs -mird")
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	return cfg, os.MkdirAll(cfg.workDir, 0o755)
}

// metricSpec is one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// all of them; README.md maps the op_* slots to each workload's
// operations.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_main_ms", "ms"},
	{"op_second_ms", "ms"},
	{"op_third_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// The per-layer metrics of a traced run, grouped by the part of the
// system that produces them. A workload that does not run a group reports
// its metrics as zero: the layer did no work.
var (
	topkLayer = []metricSpec{
		{"topk.index_build_s", "s"},
		{"topk.alltopk_s", "s"},
		{"topk.scanned_per_user", "count"},
		{"topk.layer_prunes_per_user", "count"},
		{"core.groups_hulls_s", "s"},
		{"core.groups", "count"},
		{"core.group_size_max", "count"},
	}
	aaLayer = []metricSpec{
		{"core.aa_s", "s"},
		{"core.cells", "count"},
		{"core.splits", "count"},
		{"core.iterations", "count"},
		{"core.fast_test_share", "ratio"},
		{"core.early_decided_share", "ratio"},
		{"core.hull_tests", "count"},
		{"core.group_batch_hits", "count"},
		{"core.co_mincell_s", "s"},
		{"lp.pivots", "count"},
		{"lp.pivots_per_solve", "count"},
		{"lp.warm_hit_ratio", "ratio"},
		{"lp.cold_solves", "count"},
		{"celltree.prune_lp_tests", "count"},
		{"celltree.pruned_rows_per_test", "count"},
		{"par.cpu_per_wall", "ratio"},
		{"par.steals", "count"},
		{"par.worker_cell_imbalance", "ratio"},
		{"runtime.alloc_mb_per_build", "MB"},
		{"runtime.gc_cpu_fraction", "ratio"},
	}
	standingLayer = []metricSpec{
		{"maint.apply_p50_ms", "ms"},
		{"maint.apply_tail_ms", "ms"},
		{"maint.events_per_pass", "count"},
		{"maint.routed_leaves_per_event", "count"},
		{"maint.skipped_subtrees_per_event", "count"},
		{"maint.frontier_per_event", "count"},
		{"maint.snapshot_p50_ms", "ms"},
		{"maint.cells", "count"},
		{"maint.count_desyncs", "count"},
		{"eventq.wait_p50_ms", "ms"},
		{"eventq.wait_tail_ms", "ms"},
		{"eventq.depth_max", "count"},
		{"mird.drain_size_mean", "count"},
		{"mird.drain_s_p50", "s"},
		{"snap.coverage_us", "us"},
		{"mird.http_residual_ms", "ms"},
		{"gen.lag_tail_ms", "ms"},
	}
	validityLayer = []metricSpec{
		{"trace.overhead_frac", "ratio"},
		{"unattributed_frac", "ratio"},
	}
	perLayer = concat(topkLayer, aaLayer, standingLayer, validityLayer)
)

func concat[T any](groups ...[]T) []T {
	var out []T
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, s := range concat(endToEnd, perLayer) {
		m[s.name] = s.unit
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, its operation tally, and a detail
// record with everything a metric's single number leaves out.
type report struct {
	tally
	metrics map[string]metric
	detail  map[string]any
	// measured names the process doing the work and cpuS its rusage CPU
	// seconds.
	measured string
	cpuS     float64
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), detail: make(map[string]any)}
}

// set records a metric; its unit comes from the metric lists.
func (r *report) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// timing sets name to the median of xs and records the samples' summary
// under the operation's own name.
func (r *report) timing(name, op string, xs []float64) {
	r.set(name, median(xs))
	r.summary(op, xs)
}

// summary records in the detail record the median of xs, the sample
// count, and the highest percentile with at least minBeyond samples above
// it.
func (r *report) summary(op string, xs []float64) {
	q, ok := tail(xs)
	r.detail[op] = map[string]any{"median": median(xs), "n": len(xs), "tail": q, "tail_supported": ok}
}

// tailMetric sets name to the tail percentile of xs, recording which one.
func (r *report) tailMetric(name string, xs []float64) {
	q, ok := tail(xs)
	r.set(name, q.Value)
	r.detail[name] = map[string]any{"tail": q, "tail_supported": ok}
}

// zero reports the metrics of layers this workload does not run.
func (r *report) zero(groups ...[]metricSpec) {
	for _, s := range concat(groups...) {
		r.set(s.name, 0)
	}
}

// result renders the result line, after checking that it carries exactly
// the metrics of its mode, each a finite number.
func (r *report) result(cfg config) ([]byte, error) {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		return nil, fmt.Errorf("%s reported %d metrics, want %d", cfg.workload, len(r.metrics), len(want))
	}
	for _, s := range want {
		m, ok := r.metrics[s.name]
		if !ok {
			return nil, fmt.Errorf("%s did not report %s", cfg.workload, s.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: %s is %v", cfg.workload, s.name, m.Value)
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, r.metrics})
}

// hostRecord is stored with every result, so that no number is cited
// without its host.
type hostRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Measured   string  `json:"measured_process"`
	CPUSeconds float64 `json:"cpu_s"`
}

// writeDetail prints the detail record to stderr and stores it in the
// work directory.
func (r *report) writeDetail(cfg config) error {
	r.detail["host"] = hostRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Trace:      cfg.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     cfg.commit,
		Measured:   r.measured,
		CPUSeconds: r.cpuS,
	}
	r.detail["attempted"] = r.attempted
	r.detail["failed"] = r.failed
	r.detail["wrong"] = r.wrong
	r.detail["failed_frac"] = r.failedFrac()
	b, err := json.Marshal(r.detail)
	if err != nil {
		return fmt.Errorf("detail record: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench detail: %s\n", b)
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	return os.WriteFile(filepath.Join(cfg.workDir, name), b, 0o644)
}

// selfUsage returns this process's rusage CPU seconds and peak RSS in MiB.
func selfUsage() (cpuS, peakMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	cpuS, peakMB = usage(&ru)
	return cpuS, peakMB, nil
}

// usage converts an rusage: CPU seconds, and Maxrss (KiB on Linux) in MiB.
func usage(ru *syscall.Rusage) (cpuS, peakMB float64) {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// finishSelf records the bench process as the measured one, and its peak
// RSS as peak_rss_mb on untraced runs.
func (r *report) finishSelf(cfg config) error {
	cpu, peak, err := selfUsage()
	if err != nil {
		return err
	}
	if !cfg.trace {
		r.set("peak_rss_mb", peak)
	}
	r.measured, r.cpuS = "perfbench", cpu
	return nil
}
