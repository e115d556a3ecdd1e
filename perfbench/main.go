// Command perfbench is ksrsim's repository benchmark: it runs one
// workload in this process, checks the simulated outputs, and prints
// every metric by name with its unit. See README.md for the workloads,
// the metrics and why they were chosen.
//
//	perfbench --workload sync-ring --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, from a traced phase that follows an untraced one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupReps is how many complete set-ups a run makes; setup_s is their
// median, because one set-up of a few milliseconds is mostly timer and
// scheduler jitter.
const setupReps = 3

// minUnits is the fewest units a phase runs, however short --seconds is.
const minUnits = 3

// Ops counts operations attempted and failed. A failed operation is a
// simulation error, a broken synchronisation invariant, a digest or
// result-byte mismatch, or a daemon answer that is not 2xx and done.
type Ops struct {
	Attempted int
	Failed    int
}

func (o *Ops) add(p Ops) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
}

// Sample is what one unit of work reports besides its own timing.
type Sample struct {
	Ops
	// Jobs holds the host latency of every job in the unit, from
	// request to checked result.
	Jobs []time.Duration
}

// Workload is one benchmark workload. Set-up, units and verification
// all run on the caller's goroutine; a nil *Tracer means untraced.
type Workload interface {
	// Setup discards any previous set-up, then does a complete one:
	// construction plus an un-measured warm-up unit whose outputs are
	// checked like any other.
	Setup() (Ops, error)
	// Unit runs one fixed, deterministic unit of work on the current
	// set-up and checks its outputs.
	Unit(tr *Tracer) (Sample, error)
	// Verify runs the checks that need the whole run's outputs.
	Verify(tr *Tracer) (Ops, error)
	// Accesses returns the simulated memory references made by the
	// untraced units; it is final only after Verify.
	Accesses() uint64
	// Digest returns the digest of the first warm-up unit's outputs, the
	// value reference.json records per seed.
	Digest() string
	// Layers returns the per-layer metrics of the traced units.
	Layers(tr *Tracer) map[string]float64
	// Close releases the set-up.
	Close()
}

// outDir receives everything a run writes: daemon temp dirs and traces.
var outDir = filepath.Join(".bench_build", "perfbench")

// workloadDef is one workload: its constructor and the nominal host
// seconds of one unit.
type workloadDef struct {
	unitSeconds float64
	new         func(seed uint64) Workload
}

// workloads maps each workload name to its definition. A run measures
// round(--seconds / unitSeconds) units: a fixed amount of work for a
// given --seconds, which takes about --seconds on the 2-vCPU host the
// workloads were sized on and more or less elsewhere.
var workloads = map[string]workloadDef{
	"sync-ring":   {0.7, func(seed uint64) Workload { return newSyncRing(seed) }},
	"big-machine": {0.1, func(seed uint64) Workload { return newBigMachine(seed, bigLogPairs, runtime.NumCPU()) }},
	"daemon-mix":  {0.2, func(seed uint64) Workload { return newDaemonMix(seed, outDir) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Uint64("seed", 1, "workload seed; the inputs are a function of it")
	seconds := fs.Float64("seconds", 10, "nominal host seconds of measured units; sets how many units run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	w := def.new(*seed)
	defer w.Close()
	n := max(minUnits, int(math.Round(*seconds/def.unitSeconds)))
	res, err := measure(w, n, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Workload, res.Seed, res.Digest = *name, *seed, w.Digest()
	if res.Trace != nil {
		if err := res.Trace.write(outDir, *name, *seed); err != nil {
			fmt.Fprintln(stderr, "perfbench: trace:", err)
			return 1
		}
	}
	if err := report(stdout, res, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result is everything one run measured.
type Result struct {
	Workload string
	Seed     uint64
	Digest   string // first warm-up unit's output digest
	Ops
	Setup    []float64 // seconds per complete set-up
	Wall     []float64 // seconds per untraced unit
	CPU      []float64 // user+sys seconds per untraced unit
	Jobs     []float64 // milliseconds per job, untraced units
	Accesses uint64    // simulated references in the untraced units
	MaxRSSMB float64
	// Traced-phase figures; empty unless --trace 1.
	TracedWall []float64
	Layers     map[string]float64
	Trace      *Tracer
}

// measure runs the set-ups, n untraced units, optionally traced units,
// and the verification. With tracing, the n units are split evenly
// between the untraced and the traced phase, so trace.overhead compares
// medians taken in the same process.
func measure(w Workload, n int, trace bool) (Result, error) {
	var res Result
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		ops, err := w.Setup()
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		res.Setup = append(res.Setup, time.Since(t0).Seconds())
		res.add(ops)
	}
	if trace {
		n = max(minUnits, n/2)
	}
	if err := units(w, nil, n, &res); err != nil {
		return res, err
	}
	if trace {
		res.Trace = newTracer()
		prof, err := startProfile()
		if err != nil {
			return res, err
		}
		pprof.Do(context.Background(), pprof.Labels("phase", "unit"), func(context.Context) {
			err = units(w, res.Trace, n, &res)
		})
		if perr := prof.stop(res.Trace); err == nil {
			err = perr
		}
		if err != nil {
			return res, err
		}
	}
	ops, err := w.Verify(res.Trace)
	if err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	res.add(ops)
	res.Accesses = w.Accesses()
	if trace {
		res.Layers = w.Layers(res.Trace)
	}
	res.MaxRSSMB = maxRSSMB()
	return res, nil
}

// units runs n units. Untraced units record wall time, CPU time and job
// latencies; traced units only their wall time, for trace.overhead.
func units(w Workload, tr *Tracer, n int, res *Result) error {
	for i := 0; i < n; i++ {
		c0 := cpuSeconds()
		t0 := time.Now()
		s, err := w.Unit(tr)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		if err != nil {
			return fmt.Errorf("unit %d: %w", i, err)
		}
		res.add(s.Ops)
		if tr != nil {
			res.TracedWall = append(res.TracedWall, wall)
			continue
		}
		res.Wall = append(res.Wall, wall)
		res.CPU = append(res.CPU, cpu)
		for _, j := range s.Jobs {
			res.Jobs = append(res.Jobs, float64(j)/float64(time.Millisecond))
		}
	}
	return nil
}

// metric is one named value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the end-to-end metrics, in BENCHMARK.json's order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"accesses_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
}

// endToEndValues computes the end-to-end metrics of an untraced phase.
func endToEndValues(r Result) map[string]float64 {
	return map[string]float64{
		"setup_s":        median(r.Setup),
		"wall_s":         median(r.Wall),
		"cpu_s":          median(r.CPU),
		"max_rss_mb":     r.MaxRSSMB,
		"accesses_per_s": float64(r.Accesses) / sum(r.Wall),
		"job_p50_ms":     quantile(r.Jobs, 0.50),
		"job_p95_ms":     quantile(r.Jobs, 0.95),
	}
}

// report prints the run's context lines and then the result line.
func report(out io.Writer, r Result, trace bool) error {
	e2e := endToEndValues(r)
	info := map[string]any{
		"workload":     r.Workload,
		"seed":         r.Seed,
		"digest":       r.Digest,
		"host":         hostFingerprint(),
		"setups":       len(r.Setup),
		"units":        len(r.Wall),
		"jobs":         len(r.Jobs),
		"beyond_p95":   len(r.Jobs) - int(0.95*float64(len(r.Jobs))),
		"end_to_end":   e2e,
		"wall_s_quart": quartiles(r.Wall),
	}
	if trace {
		info["traced_units"] = len(r.TracedWall)
		info["trace_file"] = r.Trace.file
		info["span_self_s"] = r.Trace.selfTimes()
		info["phase_cpu_share"] = r.Trace.phaseShares
	}
	b, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "run %s\n", b)

	values, defs := e2e, endToEnd
	if trace {
		values, defs = r.Layers, perLayer
		values["trace.overhead"] = median(r.TracedWall) / median(r.Wall)
		for k, v := range r.Trace.cpuShares {
			values[k] = v
		}
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// gitRev is the source revision; run.sh sets it at build time.
var gitRev = "unknown"

// hostFingerprint identifies the host and build a result came from; wall
// times are only comparable between runs with the same fingerprint.
func hostFingerprint() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_rev":    gitRev,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
