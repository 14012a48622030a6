// Command perfbench is the repository's benchmark: three workloads that
// measure ICC end to end (what a client sees) and, in a separate traced
// run, layer by layer (time spent in each module's public interface).
//
//	go run . --workload kv-steady --seed 1 --seconds 20 --trace 0
//
// Each run prints an environment/detail JSON line and, as its last
// line, one JSON result: {"correct", "attempted", "failed", "metrics"}.
// It exits non-zero when a correctness gate fails or the run errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
)

// e2eUnits are the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"commit_p50_ms":       "ms",
	"commit_mean_ms":      "ms",
	"ok_frac":             "frac",
	"blocks_per_s":        "1/s",
	"cpu_ms_per_block":    "ms",
	"kib_per_party_block": "KiB",
	"peak_rss_mb":         "MB",
	"setup_s":             "s",
}

// layerUnits are the per-layer metrics every traced run reports; a
// layer a workload does not run reports 0.
var layerUnits = map[string]string{
	"beacon.sign_ms_per_round":          "ms",
	"beacon.reveal_ms_per_round":        "ms",
	"beacon.reveal_calls_per_round":     "count",
	"beacon.reveal_ok_frac":             "frac",
	"core.step_ms_per_block":            "ms",
	"core.self_ms_per_block":            "ms",
	"core.step_ms_p99":                  "ms",
	"core.proposals_per_block":          "count",
	"verify.calls_per_block":            "count",
	"verify.ms_per_block":               "ms",
	"verify.wait_ms_p50":                "ms",
	"verify.cache_hit_frac":             "frac",
	"statemachine.queue_wait_ms_p50":    "ms",
	"statemachine.queue_wait_ms_p99":    "ms",
	"statemachine.cmds_per_block":       "count",
	"statemachine.payload_us_per_block": "us",
	"statemachine.apply_us_per_block":   "us",
	"gateway.submit_us_p50":             "us",
	"gateway.reject_frac":               "frac",
	"gateway.read_wait_ms_p50":          "ms",
	"gateway.read_p50_ms":               "ms",
	"transport.msgs_per_block":          "count",
	"transport.kib_per_block":           "KiB",
	"transport.send_us_p50":             "us",
	"transport.drops":                   "count",
	"wal.syncs_per_block":               "count",
	"wal.kib_per_block":                 "KiB",
	"checkpoint.saves":                  "count",
	"gossip.self_ms_per_block":          "ms",
	"gossip.msgs_per_party_block":       "count",
	"gossip.kib_per_party_block":        "KiB",
	"gc.alloc_mb_per_block":             "MB",
	"gc.cpu_frac":                       "frac",
	"run.gen_late_ms_p99":               "ms",
	"run.stall_max_ms":                  "ms",
	"run.commit_samples":                "count",
	"run.commit_p99_ms":                 "ms",
	"run.traced_cpu_ms_per_block":       "ms",
	"run.traced_commit_p50_ms":          "ms",
	"run.spans_dropped":                 "count",
}

// runConfig is what every workload receives.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes, for the package's own tests
	inject   string // break one correctness property (tests only)
	outDir   string
}

// outcome is a workload's report: the result line plus details that
// explain it (sample counts, percentiles used, generator lateness).
type outcome struct {
	res    result
	detail map[string]any
	spans  *spans
}

func newOutcome() *outcome {
	return &outcome{res: result{Metrics: map[string]metric{}}, detail: map[string]any{}}
}

func (o *outcome) set(name string, v float64) {
	unit, ok := e2eUnits[name]
	if !ok {
		unit, ok = layerUnits[name]
	}
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	o.res.Metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"kv-steady":        kvSteady,
	"kv-durable-mixed": kvDurableMixed,
	"gossip-n31-sim":   gossipSim,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run, writing its two JSON lines to stdout,
// and returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "kv-steady | kv-durable-mixed | gossip-n31-sim")
	seed := fs.Int64("seed", 1, "workload seed: keys, topology, crash set and load schedule derive from it")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes (tests only)")
	inject := fs.String("inject", "", "break one correctness property: fork | kv-mismatch | early-ack (tests only)")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for span dumps and durable state")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		smoke: *smoke, inject: *inject, outDir: *out,
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	calib := []float64{calibrate()}
	host0 := readHostCPU()
	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	host1 := readHostCPU()
	env := envHeader(cfg.seed, cfg.workload, cfg.trace, host0, host1, append(calib, calibrate()))
	if o.spans != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := o.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		o.detail["spans_file"] = path
	}
	want := e2eUnits
	if cfg.trace {
		want = layerUnits
	}
	for name := range want {
		if _, ok := o.res.Metrics[name]; !ok {
			panic("perfbench: workload did not report " + name)
		}
	}
	printJSON(stdout, map[string]any{"env": env, "detail": o.detail})
	printJSON(stdout, o.res)
	if !o.res.Correct {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// latencyFigures reports the commit latency figures. Besides the
// median, the gated figure is the mean, which the tail moves in
// proportion to its mass. Tail percentiles are reported but not gated:
// on these workloads p95 and p99 are set by a handful of long waits —
// for a replica to lead, or for a crashed leader to be skipped — whose
// number swings with the seed's leader sequence far more than any bound
// allows. The tail is p99, or with fewer than ten samples beyond it the
// highest percentile that has ten, reported with the sample count.
// slices, when given, holds the latencies per measurement sub-window;
// the gated figures are then medians over the sub-windows.
func latencyFigures(o *outcome, commitMs []float64, slices [][]float64, traced bool) {
	pct := tailPercentile(len(commitMs))
	tail := quantile(commitMs, pct/100)
	o.detail["commit_samples"] = len(commitMs)
	o.detail["commit_tail_percentile"] = pct
	o.detail["commit_tail_ms"] = tail
	o.detail["commit_p90_ms"] = quantile(commitMs, 0.90)
	o.detail["commit_p95_ms"] = quantile(commitMs, 0.95)
	o.detail["commit_p50_ms_whole"] = median(commitMs)
	o.detail["commit_mean_ms_whole"] = mean(commitMs)
	if len(slices) == 0 {
		slices = [][]float64{commitMs}
	}
	var p50s, means []float64
	for _, s := range slices {
		if len(s) > 0 {
			p50s = append(p50s, median(s))
			means = append(means, mean(s))
		}
	}
	if traced {
		o.set("run.commit_samples", float64(len(commitMs)))
		o.set("run.commit_p99_ms", tail)
		o.set("run.traced_commit_p50_ms", median(p50s))
		return
	}
	o.set("commit_p50_ms", median(p50s))
	o.set("commit_mean_ms", median(means))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(max(len(xs), 1))
}
