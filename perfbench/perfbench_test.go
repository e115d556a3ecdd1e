package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The generators are deterministic for a given seed and move with it.
func TestGeneratorsDeterministic(t *testing.T) {
	a, b, c := syncPoints(1), syncPoints(1), syncPoints(2)
	if !reflect.DeepEqual(seedsOf(a), seedsOf(b)) {
		t.Fatal("sync-ring machine seeds differ for one workload seed")
	}
	if reflect.DeepEqual(seedsOf(a), seedsOf(c)) {
		t.Fatal("sync-ring machine seeds ignore the workload seed")
	}

	if x, y := newBigMachine(1, 16, 1), newBigMachine(1, 16, 1); x.mseed != y.mseed || x.epSeed != y.epSeed {
		t.Fatal("big-machine seeds differ for one workload seed")
	}
	if x, y := newBigMachine(1, 16, 1), newBigMachine(2, 16, 1); x.epSeed == y.epSeed {
		t.Fatal("big-machine EP seed ignores the workload seed")
	}

	seq := func(seed uint64) []mixJob {
		var out []mixJob
		for c := 0; c < mixClients; c++ {
			g := newMixGen(seed, c)
			for i := 0; i < 6; i++ {
				out = append(out, g.batch()...)
			}
		}
		return out
	}
	if !reflect.DeepEqual(seq(1), seq(1)) {
		t.Fatal("daemon-mix job sequence differs for one workload seed")
	}
	if reflect.DeepEqual(seq(1), seq(2)) {
		t.Fatal("daemon-mix job sequence ignores the workload seed")
	}
}

func seedsOf(pts []syncPoint) []uint64 {
	var out []uint64
	for _, p := range pts {
		out = append(out, p.seed)
	}
	return out
}

// Every batch has the same mix, a quarter of it repeats a config the
// same client submitted before, and no config is new twice.
func TestMixShape(t *testing.T) {
	fresh := map[string]bool{}
	for c := 0; c < mixClients; c++ {
		g := newMixGen(7, c)
		seen := map[string]bool{}
		for b := 0; b < 40; b++ {
			kinds := map[string]int{}
			repeats := 0
			for _, j := range g.batch() {
				key := j.experiment + string(j.config)
				kinds[j.kind]++
				if seen[key] {
					repeats++
					continue
				}
				if fresh[key] {
					t.Fatalf("fresh config %s generated twice", key)
				}
				fresh[key], seen[key] = true, true
			}
			if repeats != 2 || !reflect.DeepEqual(kinds, map[string]int{"latency": 2, "qlocks": 2, "ep": 2, "wl": 2}) {
				t.Fatalf("client %d batch %d: kinds %v, %d repeats", c, b, kinds, repeats)
			}
		}
	}
}

// A planted wrong reference digest counts the unit's operations failed.
func TestPlantedWrongDigestFails(t *testing.T) {
	b := newBigMachine(1, 16, 1)
	b.check.ref = "" // the recorded references are for bigLogPairs
	ops, err := b.Setup()
	if err != nil || ops.Attempted != 1 || ops.Failed != 0 {
		t.Fatalf("clean set-up: %+v, %v", ops, err)
	}
	b = newBigMachine(1, 16, 1)
	b.check.ref = "0123456789abcdef"
	ops, err = b.Setup()
	if err != nil || ops.Failed != 1 {
		t.Fatalf("planted digest: %+v, %v; want one failed operation", ops, err)
	}

	c := digestCheck{}
	if f := c.check([]string{"a", "b"}, []bool{false, false}); f != 0 {
		t.Fatalf("first unit failed %d", f)
	}
	if f := c.check([]string{"a", "x"}, []bool{false, false}); f != 1 {
		t.Fatalf("one changed digest failed %d, want 1", f)
	}
	if f := c.check([]string{"a", "b"}, []bool{true, false}); f != 1 {
		t.Fatalf("one bad operation failed %d, want 1", f)
	}
}

// big-machine's digest does not depend on the PDES worker count.
func TestBigMachineWorkersAgree(t *testing.T) {
	b := newBigMachine(3, 16, 1)
	one, err := b.runEP(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := b.runEP(runtime.NumCPU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if epDigest(one) != epDigest(many) {
		t.Fatalf("SetWorkers(1) digest %s != SetWorkers(%d) digest %s", epDigest(one), runtime.NumCPU(), epDigest(many))
	}
}

// daemon-mix end to end on a small run: set-up, two units, verification.
func TestDaemonMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a daemon")
	}
	d := newDaemonMix(5, t.TempDir())
	defer d.Close()
	var ops Ops
	o, err := d.Setup()
	if err != nil {
		t.Fatal(err)
	}
	ops.add(o)
	for i := 0; i < 2; i++ {
		s, err := d.Unit(nil)
		if err != nil {
			t.Fatal(err)
		}
		ops.add(s.Ops)
		if len(s.Jobs) != 16 {
			t.Fatalf("unit ran %d jobs, want 16", len(s.Jobs))
		}
	}
	o, err = d.Verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	ops.add(o)
	if ops.Failed != 0 || ops.Attempted == 0 {
		t.Fatalf("ops %+v", ops)
	}
	if d.Accesses() == 0 {
		t.Fatal("no simulated accesses counted")
	}

	// A result that differs from the first answer for its config fails.
	key := d.order[0].key
	d.first[key] = []byte(`{"planted":true}`)
	if d.checkOutcome(jobOutcome{key: key, state: "done", result: []byte(`{}`)}) {
		t.Fatal("a result differing from the first answer passed")
	}
}

// The reference digests hold at both recorded seeds.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's set-up")
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for name, def := range workloads {
		if len(refs[name]) != 2 {
			t.Errorf("%s: %d reference seeds, want the default and a held-out one", name, len(refs[name]))
		}
		for _, seed := range []uint64{1, 9} {
			w := def.new(seed)
			if d, ok := w.(*daemonMix); ok {
				d.root = t.TempDir()
			}
			ops, err := w.Setup()
			w.Close()
			if err != nil || ops.Failed != 0 {
				t.Errorf("%s seed %d: %+v, %v (digest %s)", name, seed, ops, err, w.Digest())
			}
		}
	}
}

// BENCHMARK.json names exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program reports %v", doc.PerLayer, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, program has %v", names, workloadNames())
	}
}

// Profile samples are charged to the layer that did the work.
func TestBucket(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/sim.(*Engine).Run", "main.main"}, "sim"},
		{[]string{"math.Log", "repro/internal/kernels.GaussianPair", "repro/internal/kernels.RunBigEP.func1"}, "kernels"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/machine.New"}, "runtime.gc"},
		{[]string{"runtime.memmove", "repro/internal/coherence.(*Directory).fetch"}, "coherence"},
		{[]string{"encoding/json.(*encodeState).string", "repro/internal/server.writeJSON"}, "server"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"repro/internal/memory.Region.Word", "repro/internal/machine.(*Proc).Read"}, "machine"},
		{[]string{"encoding/json.Marshal", "main.mustJSON", "repro/internal/server.(*Server).run"}, "other"},
	}
	for _, c := range cases {
		if got := bucket(c.frames); got != c.want {
			t.Errorf("bucket(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// A traced run reports every per-layer metric, the CPU shares sum to
// one, and the outputs still check.
func TestTracedRun(t *testing.T) {
	res, err := measure(newBigMachine(2, 16, runtime.NumCPU()), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("ops %+v", res.Ops)
	}
	var out bytes.Buffer
	if err := report(&out, res, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Metrics map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(line.Metrics), len(perLayer))
	}
	share := 0.0
	for _, m := range cpuModules {
		share += line.Metrics[m+".cpu_share"].Value
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("CPU shares sum to %v", share)
	}
	for _, name := range []string{"sim.pdes.windows", "kernels.ep_s", "machine.build_s", "trace.overhead"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on big-machine", name, line.Metrics[name].Value)
		}
	}
}
