package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
)

// bigLogPairs sizes one big-machine unit at 2^21 EP pairs: enough that
// the Gaussian-pair compute dominates, small enough that construction of
// the 1088-cell machine and the ~240 PDES windows stay a visible share.
const bigLogPairs = 21

// bigCells is the full 34-ring KSR-2.
const bigCells = 1088

// bigMachine runs hierarchical EP on a freshly built 1088-cell KSR-2
// BigMachine per unit, with the PDES coordinator driven by workers
// threads.
type bigMachine struct {
	logPairs int
	workers  int
	mseed    uint64 // machine seed
	epSeed   uint64 // EP's LCG seed: odd and below 2^46
	check    digestCheck

	accesses uint64 // untraced units
	// Traced-unit aggregates.
	traced      int
	counts      machineCounts
	windows     uint64
	messages    uint64
	activeShare float64
	simTime     sim.Time
	machAcc     uint64
	bytesPer    float64
	wall        time.Duration
}

func newBigMachine(seed uint64, logPairs, workers int) *bigMachine {
	return &bigMachine{
		logPairs: logPairs,
		workers:  workers,
		mseed:    splitmix(seed),
		epSeed:   splitmix(seed+1)&(1<<46-1) | 1,
		check:    digestCheck{ref: reference("big-machine", seed)},
	}
}

func (b *bigMachine) Setup() (Ops, error) {
	smp, err := b.Unit(nil)
	return smp.Ops, err
}

func (b *bigMachine) Unit(tr *Tracer) (Sample, error) {
	t0 := time.Now()
	r, err := b.runEP(b.workers, tr)
	job := time.Since(t0)
	if tr != nil {
		b.traced++
		b.wall += job
	}
	smp := Sample{Ops: Ops{Attempted: 1}, Jobs: []time.Duration{job}}
	smp.Failed = b.check.check([]string{epDigest(r)}, []bool{err != nil || !epValid(r, b.logPairs)})
	return smp, nil
}

// runEP builds the machine, runs EP on it and, when traced, collects
// the layer counters of every ring and of the coordinator.
func (b *bigMachine) runEP(workers int, tr *Tracer) (kernels.BigEPResult, error) {
	sp := tr.Begin("machine.NewBig", "", -1)
	bm, err := machine.NewBig(machine.KSR2Big(bigCells).WithSeed(b.mseed))
	if err != nil {
		return kernels.BigEPResult{}, err
	}
	bm.Coordinator().SetWorkers(workers)
	tr.End(sp)
	defer bm.Close()

	coord := bm.Coordinator()
	pcs := make([]parkCounter, coord.Parts())
	if tr != nil {
		for i := range pcs {
			coord.Part(i).SetHooks(pcs[i].hooks())
		}
	}
	cfg := kernels.DefaultBigEPConfig(machine.RingLeafSize)
	cfg.LogPairs = b.logPairs
	cfg.Seed = b.epSeed
	sp = tr.Begin("kernels.RunBigEP", "", -1)
	r, err := kernels.RunBigEP(bm, cfg)
	tr.End(sp)

	acc := bm.TotalMonitor().Accesses
	if tr == nil {
		b.accesses += acc
		return r, err
	}
	for i := 0; i < bm.Rings(); i++ {
		b.counts.addMachine(bm.Ring(i))
	}
	st := coord.Stats()
	share := 0.0
	for i, p := range st.Partitions {
		b.counts.events += p.Events
		b.counts.parks += pcs[i].parks
		b.counts.resumes += pcs[i].resumes
		share += ratio(float64(p.ActiveWindows), float64(st.Windows))
	}
	b.windows += st.Windows
	b.messages += st.Messages
	b.activeShare += share / float64(len(st.Partitions))
	b.simTime += r.Elapsed
	b.machAcc += acc
	b.bytesPer += bm.BytesPerCell()
	return r, err
}

// epValid checks EP's own invariants: every pair drawn, and the annuli
// partition the accepted pairs.
func epValid(r kernels.BigEPResult, logPairs int) bool {
	var n int64
	for _, a := range r.Annuli {
		n += a
	}
	return r.Pairs == 1<<logPairs && r.Accepted > 0 && n == r.Accepted
}

// epDigest hashes EP's sums and counts plus the simulated elapsed time
// and the cross-ring traffic.
func epDigest(r kernels.BigEPResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "pairs=%d accepted=%d sx=%x sy=%x annuli=%v\n",
		r.Pairs, r.Accepted, math.Float64bits(r.SumX), math.Float64bits(r.SumY), r.Annuli)
	fmt.Fprintf(h, "elapsed=%d cross=%d mean=%d\n", int64(r.Elapsed), r.CrossTransactions, int64(r.MeanCrossLatency))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Verify reruns one unit with a single PDES worker: the coordinator
// promises byte-identical results at any worker count.
func (b *bigMachine) Verify(*Tracer) (Ops, error) {
	r, err := b.runEP(1, nil)
	ops := Ops{Attempted: 1}
	if err != nil || epDigest(r) != b.check.want[0] {
		ops.Failed = 1
	}
	return ops, nil
}

func (b *bigMachine) Accesses() uint64 { return b.accesses }

func (b *bigMachine) Digest() string { return b.check.unit }

func (b *bigMachine) Layers(tr *Tracer) map[string]float64 {
	out := zeroLayers()
	if b.traced == 0 {
		return out
	}
	n := float64(b.traced)
	b.counts.fill(out, n)
	build := tr.Total("machine.NewBig", "")
	run := tr.Total("kernels.RunBigEP", "")
	out["sim.host_ns_per_event"] = ratio(float64(run.Nanoseconds()), float64(b.counts.events))
	out["sim.pdes.windows"] = float64(b.windows) / n
	out["sim.pdes.messages"] = float64(b.messages) / n
	out["sim.pdes.active_share"] = b.activeShare / n
	out["machine.build_s"] = build.Seconds() / n
	out["machine.run_s"] = run.Seconds() / n
	out["machine.unaccounted_share"] = 1 - float64(build+run)/float64(b.wall)
	out["machine.accesses"] = float64(b.machAcc) / n
	out["machine.sim_s"] = b.simTime.Seconds() / n
	out["machine.bytes_per_cell"] = b.bytesPer / n
	out["kernels.ep_s"] = run.Seconds() / n
	out["kernels.host_ns_per_pair"] = float64(run.Nanoseconds()) / (n * float64(int64(1)<<b.logPairs))
	return out
}

func (b *bigMachine) Close() {}
