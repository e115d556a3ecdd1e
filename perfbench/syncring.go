package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/ksync"
	"repro/internal/machine"
	"repro/internal/sim"
)

// sync-ring sizes one unit: every barrier of ksync.Algorithms over the
// paper's processor sweep from 2 processors, then the hardware lock and
// the read-write lock from 1, each point on a freshly built 32-cell
// KSR-1 — the shape of Figures 3 and 4. The lock points use the paper's
// synthetic critical section (hold 3000, delay 10000 operations).
const (
	syncCells    = 32
	syncEpisodes = 10 // barrier episodes per point
	syncLockOps  = 10 // lock acquisitions per processor per point
	syncHoldOps  = 3000
	syncDelayOps = 10000
	syncReadPct  = 60 // share of read requests at the read-write lock
)

// syncPoint is one (algorithm, processor count) point of the sweep.
type syncPoint struct {
	algo    string // ksync barrier name, "hwlock" or "rwlock"
	barrier ksync.Factory
	procs   int
	seed    uint64 // machine seed; also draws the read-write pattern
}

func (p syncPoint) label() string { return fmt.Sprintf("%s/p=%d", p.algo, p.procs) }

// episodes is the number of barrier episodes or lock acquisitions the
// point performs.
func (p syncPoint) episodes() int {
	if p.algo == "hwlock" || p.algo == "rwlock" {
		return syncLockOps * p.procs
	}
	return syncEpisodes
}

// syncPoints builds the unit's points; machine seeds derive from seed.
func syncPoints(seed uint64) []syncPoint {
	var pts []syncPoint
	sweep := experiments.DefaultProcSweep(syncCells)
	for _, f := range ksync.Algorithms() {
		for _, pn := range sweep[1:] {
			pts = append(pts, syncPoint{algo: metricSegment(f.Name), barrier: f, procs: pn})
		}
	}
	for _, algo := range []string{"hwlock", "rwlock"} {
		for _, pn := range sweep {
			pts = append(pts, syncPoint{algo: algo, procs: pn})
		}
	}
	base := splitmix(seed)
	for i := range pts {
		pts[i].seed = splitmix(base + uint64(i))
	}
	return pts
}

type syncRing struct {
	points []syncPoint
	check  digestCheck

	accesses uint64 // untraced units
	// Traced-unit aggregates.
	traced   int
	counts   machineCounts
	simTime  sim.Time
	machAcc  uint64
	bytesPer float64
	wall     time.Duration
}

func newSyncRing(seed uint64) *syncRing {
	return &syncRing{points: syncPoints(seed), check: digestCheck{ref: reference("sync-ring", seed)}}
}

func (s *syncRing) Setup() (Ops, error) {
	smp, err := s.unit(nil)
	return smp.Ops, err
}

func (s *syncRing) Unit(tr *Tracer) (Sample, error) {
	t0 := time.Now()
	smp, err := s.unit(tr)
	if tr != nil {
		s.traced++
		s.wall += time.Since(t0)
	}
	return smp, err
}

// unit runs every point once and checks the outputs.
func (s *syncRing) unit(tr *Tracer) (Sample, error) {
	smp := Sample{Ops: Ops{Attempted: len(s.points)}}
	digests := make([]string, len(s.points))
	bad := make([]bool, len(s.points))
	var acc uint64
	for i, pt := range s.points {
		t0 := time.Now()
		r := s.runPoint(pt, tr)
		smp.Jobs = append(smp.Jobs, time.Since(t0))
		digests[i], bad[i] = r.digest, r.bad
		acc += r.accesses
	}
	smp.Failed = s.check.check(digests, bad)
	if tr == nil {
		s.accesses += acc
	}
	return smp, nil
}

// pointResult is one point's checked output.
type pointResult struct {
	digest   string
	accesses uint64
	bad      bool // the run failed or broke a synchronisation invariant
}

// runPoint builds a fresh machine, runs one point on it and digests the
// simulated outputs: simulated time plus the Monitor, fabric and
// coherence counters.
func (s *syncRing) runPoint(pt syncPoint, tr *Tracer) pointResult {
	sp := tr.Begin("machine.New", pt.label(), -1)
	m := machine.New(machine.KSR1(syncCells).WithSeed(pt.seed))
	tr.End(sp)
	var pc parkCounter
	if tr != nil {
		m.Engine().SetHooks(pc.hooks())
	}
	sp = tr.Begin("ksync.New", pt.label(), -1)
	body, broken := syncBody(m, pt)
	tr.End(sp)

	sp = tr.Begin("machine.Run", pt.label(), -1)
	t, err := m.Run(pt.procs, body)
	tr.End(sp)
	defer m.Close()

	mon := m.TotalMonitor()
	res := pointResult{digest: machineDigest(pt.label(), t, m), accesses: mon.Accesses, bad: err != nil || *broken}
	if tr != nil {
		s.counts.addMachine(m)
		s.counts.events += m.Engine().EventsExecuted()
		s.counts.parks += pc.parks
		s.counts.resumes += pc.resumes
		s.simTime += t
		s.machAcc += mon.Accesses
		s.bytesPer += float64(m.FootprintBytes()) / float64(m.Cells())
	}
	return res
}

// syncBody builds the point's synchronisation object on m and returns
// the per-processor body plus a flag the body sets when the object
// breaks its contract: a processor leaving a barrier episode before all
// have arrived, or two holders inside a critical section at once.
// Simulated processors run one at a time, so the plain shared state is
// ordered by the engine's handoffs.
func syncBody(m *machine.Machine, pt syncPoint) (func(p *machine.Proc), *bool) {
	broken := new(bool)
	switch pt.algo {
	case "hwlock":
		l := ksync.NewHWLock(m)
		holder := -1
		return func(p *machine.Proc) {
			for op := 0; op < syncLockOps; op++ {
				l.Acquire(p)
				if holder != -1 {
					*broken = true
				}
				holder = p.CellID()
				p.Compute(syncHoldOps)
				if holder != p.CellID() {
					*broken = true
				}
				holder = -1
				l.Release(p)
				p.Compute(syncDelayOps)
			}
		}, broken
	case "rwlock":
		l := ksync.NewRWLock(m)
		rng := sim.NewRNG(pt.seed)
		pattern := make([]bool, pt.procs*syncLockOps)
		for i := range pattern {
			pattern[i] = rng.Intn(100) < syncReadPct
		}
		readers, writer := 0, false
		return func(p *machine.Proc) {
			for op := 0; op < syncLockOps; op++ {
				read := pattern[p.CellID()*syncLockOps+op]
				tok := l.Acquire(p, read)
				if writer || (!read && readers > 0) {
					*broken = true
				}
				if read {
					readers++
				} else {
					writer = true
				}
				p.Compute(syncHoldOps)
				if read {
					readers--
				} else {
					writer = false
				}
				l.Release(p, tok)
				p.Compute(syncDelayOps)
			}
		}, broken
	default:
		b := pt.barrier.New(m, pt.procs)
		arrived := make([]int, syncEpisodes)
		return func(p *machine.Proc) {
			for e := 0; e < syncEpisodes; e++ {
				arrived[e]++
				b.Wait(p)
				if arrived[e] != pt.procs {
					*broken = true
				}
			}
		}, broken
	}
}

// machineDigest hashes a run's simulated outputs. Fields are written
// one by one, so adding a counter to a stats struct leaves digests as
// they were.
func machineDigest(label string, t sim.Time, m *machine.Machine) string {
	h := sha256.New()
	mon := m.TotalMonitor()
	fs := m.Fabric().Stats()
	fmt.Fprintf(h, "%s t=%d\n", label, int64(t))
	fmt.Fprintf(h, "mon %d %d %d %d %d %d %d %d %d %d %d %d\n",
		mon.Accesses, mon.SubMisses, mon.LocalMisses, mon.RemoteAccesses, int64(mon.RingTime),
		mon.SubAllocs, mon.PageAllocs, mon.Poststores, mon.Prefetches, mon.GSPRetries,
		mon.Interrupts, mon.Stalls)
	fmt.Fprintf(h, "fab %d %d %d %d\n", fs.Transactions, int64(fs.TotalLatency), int64(fs.TotalWait), fs.MaxInFlight)
	if d := m.Directory(); d != nil {
		ds := d.Stats()
		fmt.Fprintf(h, "coh %d %d %d %d %d %d %d %d %d %d %d\n",
			ds.ReadFetches, ds.WriteFetches, ds.Invalidations, ds.Snarfs, ds.GSPAttempts,
			ds.GSPFailures, ds.Releases, ds.Poststores, ds.PoststoreFill, ds.Prefetches, ds.Drops)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (s *syncRing) Verify(*Tracer) (Ops, error) { return Ops{}, nil }

func (s *syncRing) Accesses() uint64 { return s.accesses }

func (s *syncRing) Digest() string { return s.check.unit }

func (s *syncRing) Layers(tr *Tracer) map[string]float64 {
	out := zeroLayers()
	if s.traced == 0 {
		return out
	}
	n := float64(s.traced)
	s.counts.fill(out, n)
	build := tr.Total("machine.New", "")
	syncNew := tr.Total("ksync.New", "")
	run := tr.Total("machine.Run", "")
	out["sim.host_ns_per_event"] = ratio(float64(run.Nanoseconds()), float64(s.counts.events))
	out["machine.build_s"] = (build + syncNew).Seconds() / n
	out["machine.run_s"] = run.Seconds() / n
	out["machine.unaccounted_share"] = 1 - float64(build+syncNew+run)/float64(s.wall)
	out["machine.accesses"] = float64(s.machAcc) / n
	out["machine.sim_s"] = s.simTime.Seconds() / n
	out["machine.bytes_per_cell"] = s.bytesPer / (n * float64(len(s.points)))
	episodes := map[string]int{}
	total := 0
	for _, pt := range s.points {
		episodes[pt.algo] += pt.episodes()
		total += pt.episodes()
	}
	out["ksync.episodes"] = float64(total)
	for _, a := range syncAlgorithms() {
		d := tr.Total("machine.Run", a+"/")
		out["ksync."+a+".host_us_per_episode"] = float64(d) / 1e3 / (n * float64(episodes[a]))
	}
	return out
}

func (s *syncRing) Close() {}
