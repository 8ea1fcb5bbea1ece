// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one of three closed-loop workloads in-process —
// sim (the simulator library), service (an lvpd daemon over HTTP) and
// sweep (a cluster coordinator with two workers) — for a fixed time,
// checks every simulated result against an independent reference, and
// prints the metrics as one JSON line.
//
//	go run . --workload sim --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) times each layer from outside — by wrapping or
// directly driving its public functions — and reports the per-layer
// ledger, writing its spans as a Chrome trace. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts are one run's settings.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	// small shrinks every input (instruction counts, stream counts) for
	// the package's smoke tests; the benchmark never sets it.
	small bool
	// dir holds the run's scratch files (data directories, the span
	// file); it lives inside the working directory.
	dir string
}

func (o opts) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

var workloads = map[string]func(opts) (*report, error){
	"sim":     runSim,
	"service": runService,
	"sweep":   runSweep,
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares;
// TestMetricNamesMatchBenchmarkJSON keeps the three in step.
var (
	endToEnd = []string{
		"setup_s", "sim_mips", "mem_peak_mb", "job_p50_ms", "job_p90_ms",
		"hit_p50_ms", "jobs_per_s", "sweep_makespan_s", "upload_p50_ms",
	}
	perLayer = []string{
		"trace.gen_ns_per_inst", "trace.record_ns_per_inst", "trace.replay_ns_per_inst", "trace.generated",
		"tracein.encode_ns_per_inst", "tracein.decode_ns_per_inst",
		"mem.ns_per_access", "mem.accesses", "mem.l1d_hit_ratio",
		"branch.ns_per_branch", "branch.branches", "branch.mispredict_ratio",
		"core.ns_per_load", "core.loads", "core.coverage_ratio", "core.accuracy_ratio",
		"core.probe_calls", "core.train_calls", "core.busy_frac",
		"eves.ns_per_load", "eves.coverage_ratio", "eves.busy_frac",
		"cpu.noengine_ns_per_inst", "cpu.self_ns_per_inst",
		"spec.canonical_ns",
		"server.accept_p50_ms", "server.queue_wait_p50_ms", "server.run_p50_ms", "server.cache_hit_ratio",
		"store.wal_fsync_p50_ms", "store.runs_query_p50_ms", "tenant.queue_wait_p50_ms",
		"cluster.point_p50_ms", "cluster.point_run_p50_ms", "cluster.dispatch_wait_p50_ms",
		"cluster.retries", "cluster.worker_busy_frac",
		"trace.artifacts_shipped", "trace.worker_generated",
		"ledger.residual_frac", "ledger.tracing_overhead_frac",
	}
)

// probeSeconds is the length of the reduced-scale runs that measure,
// in a traced run, the layers its own workload does not exercise.
const probeSeconds = 2

// fillLayers completes a traced run's ledger: each per-layer metric
// the workload did not produce (the serving layers on sim, the cluster
// layers on sim and service) comes from a reduced-scale traced run of
// the workload that exercises that layer. The probe's operations count
// toward the run's attempted and failed totals.
func fillLayers(own string, o opts, r *report) error {
	for _, other := range []string{"service", "sweep"} {
		if other == own || !missing(r, perLayer) {
			continue
		}
		dir, err := os.MkdirTemp(o.dir, other+"-")
		if err != nil {
			return err
		}
		p, err := workloads[other](opts{seed: o.seed, seconds: probeSeconds, trace: true, small: true, dir: dir})
		if err != nil {
			return fmt.Errorf("%s probe: %w", other, err)
		}
		for _, n := range perLayer {
			if _, ok := r.metrics[n]; !ok {
				if m, ok := p.metrics[n]; ok {
					r.metrics[n] = m
				}
			}
		}
		r.attempted.Add(p.attempted.Load())
		r.failed.Add(p.failed.Load())
		r.failures = append(r.failures, p.failures...)
	}
	return nil
}

// missing reports whether any of names is absent from r.
func missing(r *report, names []string) bool {
	for _, n := range names {
		if _, ok := r.metrics[n]; !ok {
			return true
		}
	}
	return false
}

func main() {
	name := flag.String("workload", "", "workload to run: sim, service or sweep")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-runs"), "directory for scratch files and span traces")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sim|service|sweep, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*out, *name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traced == 1, dir: dir}
	rep, err := run(o)
	if err == nil && o.trace {
		err = fillLayers(*name, o, rep)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if missing(rep, want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: the run did not produce every metric it declares\n", *name)
		os.Exit(1)
	}
	printReport(os.Stdout, *name, o, rep)
}

// hostFingerprint describes the machine a result was measured on.
func hostFingerprint(seed uint64) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable summary (host fingerprint,
// each metric with its sample count, failures) and ends with the
// result line: one JSON object with exactly correct, attempted, failed
// and metrics.
func printReport(w *os.File, name string, o opts, r *report) {
	host, _ := json.Marshal(hostFingerprint(o.seed))
	fmt.Fprintf(w, "perfbench workload=%s trace=%v seconds=%g host=%s\n", name, o.trace, o.seconds, host)
	if r.speed > 0 {
		fmt.Fprintf(w, "host speed %.4g of nominal (calibration kernel %.0f ns, nominal %.0f ns); times and rates below are at nominal speed\n",
			r.speed, calibNominalNs/r.speed, calibNominalNs)
	}
	fmt.Fprintln(w, "model: unvalidated against hardware; simulated statistics are correctness checks, not metrics")
	if o.trace {
		fmt.Fprintf(w, "spans: %s\n", spanPath(o))
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("  %-32s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		if raw, ok := r.raw[n]; ok {
			line += fmt.Sprintf("  (raw %.6g)", raw)
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	attempted, failed := r.attempted.Load(), r.failed.Load()
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, r.metrics}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}
