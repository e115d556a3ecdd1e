package main

import (
	"strings"

	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/sim"
)

// perLayer lists the per-layer metrics, in BENCHMARK.json's order. A
// traced run reports all of them; a layer the workload does not exercise
// reads 0. Counts are per unit of work.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.parks", "count"},
		{"sim.resumes", "count"},
		{"sim.pdes.windows", "count"},
		{"sim.pdes.messages", "count"},
		{"sim.pdes.active_share", "share"},
		{"fabric.transactions", "count"},
		{"fabric.wait_share", "share"},
		{"coherence.fetches", "count"},
		{"coherence.invalidations", "count"},
		{"coherence.gsp_fail_ratio", "ratio"},
		{"cache.accesses", "count"},
		{"cache.sub_miss_ratio", "ratio"},
		{"cache.local_miss_ratio", "ratio"},
		{"cache.evictions", "count"},
		{"machine.build_s", "s"},
		{"machine.run_s", "s"},
		{"machine.unaccounted_share", "share"},
		{"machine.accesses", "count"},
		{"machine.sim_s", "s"},
		{"machine.bytes_per_cell", "B"},
		{"ksync.episodes", "count"},
	}
	for _, a := range syncAlgorithms() {
		defs = append(defs, metricDef{"ksync." + a + ".host_us_per_episode", "us"})
	}
	defs = append(defs,
		metricDef{"kernels.ep_s", "s"},
		metricDef{"kernels.host_ns_per_pair", "ns"},
	)
	for _, k := range jobKinds {
		defs = append(defs, metricDef{"experiments." + k + ".run_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"server.submit_ms.p50", "ms"},
		metricDef{"server.submit_ms.p95", "ms"},
		metricDef{"server.hit_ms.p50", "ms"},
		metricDef{"jobq.wait_ms.p50", "ms"},
		metricDef{"jobq.wait_ms.p95", "ms"},
		metricDef{"jobq.run_ms.p50", "ms"},
		metricDef{"jobq.journal_appends", "count"},
		metricDef{"jobq.retried", "count"},
		metricDef{"jobq.rejected", "count"},
		metricDef{"jobq.failed", "count"},
		metricDef{"resultcache.hit_ratio", "ratio"},
		metricDef{"resultcache.stores", "count"},
		metricDef{"resultcache.evictions", "count"},
	)
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_share", "share"})
	}
	return append(defs, metricDef{"trace.overhead", "ratio"})
}

// syncAlgorithms names every synchronisation algorithm sync-ring runs,
// as metric-name segments: each barrier of ksync.Algorithms ("tree(M)"
// becomes "tree_M") plus the hardware and read-write locks.
func syncAlgorithms() []string {
	var out []string
	for _, f := range ksync.Algorithms() {
		out = append(out, metricSegment(f.Name))
	}
	return append(out, "hwlock", "rwlock")
}

func metricSegment(name string) string {
	return strings.NewReplacer("(", "_", ")", "").Replace(name)
}

// zeroLayers returns every per-layer metric except the CPU shares and
// trace.overhead, set to 0; workloads overwrite the layers they use.
func zeroLayers() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		if !strings.HasSuffix(d.Name, ".cpu_share") && d.Name != "trace.overhead" {
			out[d.Name] = 0
		}
	}
	return out
}

// parkCounter counts process parks and resumes on one engine through
// the engine's instrumentation hooks. Each engine gets its own counter,
// so partitions running on different threads share nothing.
type parkCounter struct{ parks, resumes uint64 }

func (c *parkCounter) hooks() *sim.Hooks {
	return &sim.Hooks{
		ProcessPark:   func(sim.Time, *sim.Process, string) { c.parks++ },
		ProcessResume: func(sim.Time, *sim.Process) { c.resumes++ },
	}
}

// machineCounts accumulates the layer counters of the machines a traced
// unit ran.
type machineCounts struct {
	events, parks, resumes                   uint64
	fabTx                                    uint64
	fabWait, fabLatency                      sim.Time
	fetches, invalidations, gspTry, gspFail  uint64
	subAcc, subMiss, localAcc, localMiss, ev uint64
}

// addMachine adds m's fabric, coherence and cache counters.
func (c *machineCounts) addMachine(m *machine.Machine) {
	fs := m.Fabric().Stats()
	c.fabTx += fs.Transactions
	c.fabWait += fs.TotalWait
	c.fabLatency += fs.TotalLatency
	if d := m.Directory(); d != nil {
		ds := d.Stats()
		c.fetches += ds.ReadFetches + ds.WriteFetches
		c.invalidations += ds.Invalidations
		c.gspTry += ds.GSPAttempts
		c.gspFail += ds.GSPFailures
	}
	for i := 0; i < m.Cells(); i++ {
		cell := m.CellAt(i)
		if sc := cell.SubCache(); sc != nil {
			s := sc.Stats()
			c.subAcc += s.Accesses
			c.subMiss += s.TransferMisses + s.AllocMisses
			c.ev += s.Evictions
		}
		if lc := cell.LocalCache(); lc != nil {
			s := lc.Stats()
			c.localAcc += s.Accesses
			c.localMiss += s.TransferMisses + s.AllocMisses
			c.ev += s.Evictions
		}
	}
}

// fill writes the counters, divided by units, into the layer metrics.
func (c *machineCounts) fill(out map[string]float64, units float64) {
	out["sim.events"] = float64(c.events) / units
	out["sim.parks"] = float64(c.parks) / units
	out["sim.resumes"] = float64(c.resumes) / units
	out["fabric.transactions"] = float64(c.fabTx) / units
	out["fabric.wait_share"] = ratio(float64(c.fabWait), float64(c.fabLatency))
	out["coherence.fetches"] = float64(c.fetches) / units
	out["coherence.invalidations"] = float64(c.invalidations) / units
	out["coherence.gsp_fail_ratio"] = ratio(float64(c.gspFail), float64(c.gspTry))
	out["cache.accesses"] = float64(c.subAcc) / units
	out["cache.sub_miss_ratio"] = ratio(float64(c.subMiss), float64(c.subAcc))
	out["cache.local_miss_ratio"] = ratio(float64(c.localMiss), float64(c.localAcc))
	out["cache.evictions"] = float64(c.ev) / units
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
