package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/sim"
)

// daemon-mix runs an in-process ksrsimd with its durable configuration
// (journal and cache directory on disk) and its default two workers,
// and drives it with two closed-loop clients over loopback. One unit is
// a batch: each client submits eight jobs, one after the other, and the
// batch ends when both are done.
const (
	mixClients    = 2
	mixWorkers    = 2 // ksrsimd's default -workers
	mixQueueCap   = 64
	mixCacheBytes = 256 << 20
	// mixJobTimeout bounds one job, so a wedged daemon fails the run
	// instead of hanging it.
	mixJobTimeout = 60 * time.Second
)

// jobKinds are the job kinds daemon-mix submits, as metric segments;
// "wl" covers the workload-engine presets.
var jobKinds = []string{"latency", "qlocks", "ep", "wl"}

// mixKinds is one client's batch before shuffling: two jobs of each
// kind. The second qlocks and the second ep job repeat a config the
// client submitted before, so a quarter of all submissions are repeats.
var mixKinds = []string{"latency", "latency", "qlocks", "qlocks", "ep", "ep", "wl", "wl"}

// mixRepeatKinds are the kinds whose last job in a batch is a repeat.
var mixRepeatKinds = map[string]bool{"qlocks": true, "ep": true}

// wlPresets are the workload-engine presets daemon-mix submits, with
// processor counts that bring each near the host time of the other job
// kinds, so that the fresh jobs' latencies form one cluster and the
// percentiles do not sit in a gap between two. Each client runs one half
// per batch and the halves swap every batch, so every batch runs all
// four. producer-consumer is left out: at these sizes it costs two to
// three times the others.
var wlPresets = []struct {
	name  string
	procs []int
}{
	{"hot-lock", []int{32}},
	{"multi-tenant", []int{24, 32}},
	{"stencil", []int{24, 32}},
	{"false-sharing", []int{24, 32}},
}

// mixJob is one submission.
type mixJob struct {
	kind       string // one of jobKinds
	experiment string // registry name
	config     json.RawMessage
}

// mixGen generates one client's job sequence from the workload seed.
// Every batch holds the same kinds and presets, so the work per batch
// barely moves with the seed. Each fresh config is new to the whole run:
// its parameters come from a per-kind bijection of (job number, client),
// so no two fresh jobs share a cache key. The knobs varied are ones that
// move host work little (lock hold time, machine kind, cell count,
// processor counts and their order, workload seed) or evenly (latency
// region size over 720–784 KiB, past the 256 KiB sub-cache).
type mixGen struct {
	seed    uint64
	client  int
	batches int
	rng     *sim.RNG
	fresh   map[string]int      // fresh jobs generated so far, per kind
	past    map[string][]mixJob // fresh jobs generated so far, per kind
}

func newMixGen(seed uint64, client int) *mixGen {
	return &mixGen{
		seed:   seed,
		client: client,
		rng:    sim.NewRNG(splitmix(seed ^ uint64(client+1)<<56)),
		fresh:  map[string]int{},
		past:   map[string][]mixJob{},
	}
}

// batch returns the client's next eight jobs in a seeded order. A repeat
// is the last job of its kind in the batch and names a config this
// client already submitted, so it is answered from the result cache.
func (g *mixGen) batch() []mixJob {
	kinds := append([]string(nil), mixKinds...)
	for i := len(kinds) - 1; i > 0; i-- {
		j := g.rng.Intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	last := map[string]int{}
	for i, k := range kinds {
		last[k] = i
	}
	presets := []int{0, 1}
	if (g.client+g.batches)%2 == 1 {
		presets = []int{2, 3}
	}
	g.batches++
	jobs := make([]mixJob, len(kinds))
	for i, k := range kinds {
		if mixRepeatKinds[k] && last[k] == i {
			prev := g.past[k]
			jobs[i] = prev[g.rng.Intn(len(prev))]
			continue
		}
		preset := 0
		if k == "wl" {
			preset, presets = presets[0], presets[1:]
		}
		jobs[i] = g.freshJob(k, preset)
		g.past[k] = append(g.past[k], jobs[i])
	}
	return jobs
}

// freshJob returns the kind's next config for this client; preset
// indexes wlPresets for a "wl" job.
func (g *mixGen) freshJob(kind string, preset int) mixJob {
	n := g.fresh[kind]
	g.fresh[kind]++
	u := uint64(n*mixClients + g.client)
	// perm is a bijection of u onto [0, size) for u < size: 389 is prime
	// and divides none of the sizes below.
	perm := func(size uint64) uint64 {
		return (u*389 + splitmix(g.seed^hashString(kind))) % size
	}
	j := mixJob{kind: kind, experiment: kind}
	switch kind {
	case "latency":
		j.config = mustJSON(map[string]any{
			"Machine": "ksr1", "Cells": 4, "Procs": []int{1},
			"RegionBytes": 720<<10 + 64*perm(1024),
		})
	case "qlocks":
		j.config = mustJSON(map[string]any{
			"Machine": "ksr1", "Cells": 8, "Procs": []int{8},
			"OpsPerProc": 80, "HoldOps": 1000 + perm(4096),
		})
	case "ep":
		x := perm(2 * 8 * uint64(len(procTriples))) // machine kind x cell count x processor triple
		j.config = mustJSON(map[string]any{
			"Machine": []string{"ksr1", "ksr2"}[x%2], "Cells": 8 + (x/2)%8,
			"Procs": procTriples[x/16], "LogPairs": 18,
		})
	case "wl":
		p := wlPresets[preset]
		j.experiment = "wl-" + p.name
		j.config = mustJSON(map[string]any{
			"spec":  map[string]any{"seed": splitmix(g.seed ^ u<<20 ^ hashString(p.name))},
			"procs": p.procs,
		})
	}
	return j
}

// procTriples lists the 336 ordered triples of distinct processor counts
// from 1 to 8.
var procTriples = func() [][]int {
	var out [][]int
	for a := 1; a <= 8; a++ {
		for b := 1; b <= 8; b++ {
			for c := 1; c <= 8; c++ {
				if a != b && b != c && a != c {
					out = append(out, []int{a, b, c})
				}
			}
		}
	}
	return out
}()

func hashString(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	var x uint64
	for _, c := range h[:8] {
		x = x<<8 | uint64(c)
	}
	return x
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// jobOutcome is what a client observed for one job.
type jobOutcome struct {
	job     mixJob
	id      string
	key     string
	state   string
	cached  bool
	config  json.RawMessage // canonical config, as the daemon ran it
	result  []byte          // compacted result JSON
	runSec  float64         // daemon-side run time
	posted  time.Time       // when the submit request was sent
	submit  time.Duration   // submit round trip
	latency time.Duration   // submit to result
	err     error
}

// verifyItem is one distinct config to re-run directly.
type verifyItem struct {
	key        string
	kind       string
	experiment string
	config     json.RawMessage
}

// directRun is a direct Runner.Run of one config.
type directRun struct {
	dur      time.Duration
	counters map[string]float64 // summed over the run's machines
}

type daemonMix struct {
	seed  uint64
	root  string // parent of the per-set-up temp dirs
	check digestCheck

	// The current set-up.
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	gens   []*mixGen

	first    map[string][]byte // cache key -> first result seen
	order    []verifyItem      // distinct configs in first-seen order
	direct   map[string]directRun
	untraced []string // keys the daemon simulated in untraced units

	// Traced-phase records.
	tracing  atomic.Bool
	startsMu sync.Mutex
	starts   map[string]time.Time // job id -> worker start
	traced   []jobOutcome
	batches  int
	stats0   api.StatsResponse
	statsN   api.StatsResponse
	appends  int64
	appendsN int
}

func newDaemonMix(seed uint64, root string) *daemonMix {
	return &daemonMix{
		seed:   seed,
		root:   root,
		check:  digestCheck{ref: reference("daemon-mix", seed)},
		first:  map[string][]byte{},
		direct: map[string]directRun{},
		starts: map[string]time.Time{},
	}
}

// Setup starts a fresh daemon in a new temp dir and runs the warm-up
// batch on it. Every set-up replays the same warm-up batch on an empty
// cache, so each re-simulates what the previous one did.
func (d *daemonMix) Setup() (Ops, error) {
	if err := d.stop(); err != nil {
		return Ops{}, err
	}
	if err := os.MkdirAll(d.root, 0o755); err != nil {
		return Ops{}, err
	}
	dir, err := os.MkdirTemp(d.root, "daemon-")
	if err != nil {
		return Ops{}, err
	}
	d.dir = dir
	// The daemon's goroutines (queue workers, connection handlers)
	// inherit the label, so a CPU profile tells daemon from clients.
	pprof.Do(context.Background(), pprof.Labels("phase", "daemon"), func(context.Context) {
		err = d.start()
	})
	if err != nil {
		os.RemoveAll(dir)
		return Ops{}, err
	}
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}}
	d.gens = make([]*mixGen, mixClients)
	for c := range d.gens {
		d.gens[c] = newMixGen(d.seed, c)
	}
	smp, err := d.batch(nil, true)
	return smp.Ops, err
}

// start opens the result cache and the journal in d.dir, builds the
// server and serves it on a loopback port.
func (d *daemonMix) start() error {
	cache, err := resultcache.Open(filepath.Join(d.dir, "cache"), mixCacheBytes)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Workers:     mixWorkers,
		QueueCap:    mixQueueCap,
		Cache:       cache,
		JournalPath: filepath.Join(d.dir, "journal.log"),
		BeforeRun:   d.beforeRun,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(time.Second)
		return err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: srv.Handler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	d.base = "http://" + ln.Addr().String()
	return nil
}

// beforeRun is the daemon's per-attempt hook; while tracing it records
// when a worker picked the job up.
func (d *daemonMix) beforeRun(_ context.Context, id string, _ int) error {
	if d.tracing.Load() {
		d.startsMu.Lock()
		d.starts[id] = time.Now()
		d.startsMu.Unlock()
	}
	return nil
}

// stop drains and shuts down the current daemon, waits for its server
// goroutine and removes its directory.
func (d *daemonMix) stop() error {
	if d.srv == nil {
		return nil
	}
	d.srv.Drain(30 * time.Second)
	err := d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
	d.srv = nil
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *daemonMix) Unit(tr *Tracer) (Sample, error) {
	if tr == nil {
		return d.batch(nil, false)
	}
	if !d.tracing.Load() {
		if err := d.getJSON("/v1/stats", &d.stats0); err != nil {
			return Sample{}, err
		}
		d.statsN = d.stats0
		d.tracing.Store(true)
	}
	smp, err := d.batch(tr, false)
	if err != nil {
		return smp, err
	}
	prev := d.statsN
	d.statsN = api.StatsResponse{} // decode into fresh pointers, not prev's
	if err := d.getJSON("/v1/stats", &d.statsN); err != nil {
		return smp, err
	}
	d.batches++
	// Journal appends reset at each compaction; count only batches
	// without one.
	if p, n := prev.Journal, d.statsN.Journal; p != nil && n != nil && p.Compactions == n.Compactions {
		d.appends += n.Appends - p.Appends
		d.appendsN++
	}
	return smp, nil
}

// batch runs one batch with both clients and checks every answer.
func (d *daemonMix) batch(tr *Tracer, warmup bool) (Sample, error) {
	jobs := make([][]mixJob, mixClients)
	outs := make([][]jobOutcome, mixClients)
	for c := range jobs {
		jobs[c] = d.gens[c].batch()
	}
	var wg sync.WaitGroup
	for c := range jobs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", "client")))
			for _, j := range jobs[c] {
				outs[c] = append(outs[c], d.do(j, tr))
			}
		}(c)
	}
	wg.Wait()

	var smp Sample
	var results []string
	var bad []bool
	for _, cs := range outs {
		for _, o := range cs {
			smp.Jobs = append(smp.Jobs, o.latency)
			results = append(results, resultDigest(o))
			bad = append(bad, !d.checkOutcome(o))
			if !o.cached && o.err == nil && tr == nil && !warmup {
				d.untraced = append(d.untraced, o.key)
			}
			if tr != nil {
				d.traced = append(d.traced, o)
			}
		}
	}
	smp.Attempted = len(results)
	if warmup {
		smp.Failed = d.check.check(results, bad)
		return smp, nil
	}
	for _, b := range bad {
		if b {
			smp.Failed++
		}
	}
	return smp, nil
}

// resultDigest hashes a job's cache key, final state and result bytes.
func resultDigest(o jobOutcome) string {
	h := sha256.Sum256([]byte(o.key + "\n" + o.state + "\n" + string(o.result)))
	return hex.EncodeToString(h[:8])
}

// checkOutcome reports whether a job finished done with the same result
// bytes as the first answer for its config, recording first answers.
func (d *daemonMix) checkOutcome(o jobOutcome) bool {
	if o.err != nil || o.state != api.StateDone {
		return false
	}
	prev, ok := d.first[o.key]
	if !ok {
		d.first[o.key] = o.result
		d.order = append(d.order, verifyItem{key: o.key, kind: o.job.kind, experiment: o.job.experiment, config: o.config})
		return true
	}
	return bytes.Equal(prev, o.result)
}

// do submits one job and waits for its result.
func (d *daemonMix) do(j mixJob, tr *Tracer) jobOutcome {
	sp := tr.Begin("client.job", j.experiment, -1)
	o := d.submitAndWait(j, tr, sp)
	o.latency = time.Since(o.posted)
	tr.End(sp)
	return o
}

// submitAndWait submits one job and polls it until it is terminal.
func (d *daemonMix) submitAndWait(j mixJob, tr *Tracer, sp int) jobOutcome {
	o := jobOutcome{job: j, posted: time.Now()}
	body := mustJSON(api.JobSpec{Experiment: j.experiment, Config: j.config})
	var sub api.SubmitResponse
	ps := tr.Begin("server.submit", j.experiment, sp)
	err := d.call(http.MethodPost, "/v1/jobs", body, &sub)
	tr.End(ps)
	o.submit = time.Since(o.posted)
	if err != nil {
		o.err = err
		return o
	}
	if len(sub.Jobs) != 1 {
		o.err = fmt.Errorf("submit answered %d handles", len(sub.Jobs))
		return o
	}
	h := sub.Jobs[0]
	o.id, o.key, o.cached = h.ID, h.Key, h.Cached
	deadline := o.posted.Add(mixJobTimeout)
	delay := 250 * time.Microsecond
	for {
		var st api.JobStatus
		gs := tr.Begin("server.get", j.experiment, sp)
		err := d.getJSON("/v1/jobs/"+h.ID, &st)
		tr.End(gs)
		if err != nil {
			o.err = err
			return o
		}
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCancelled, api.StateRejected, api.StateQuarantined:
			o.state, o.config, o.runSec = st.State, st.Config, st.WallSeconds
			var buf bytes.Buffer
			if err := json.Compact(&buf, st.Result); err != nil && st.State == api.StateDone {
				o.err = fmt.Errorf("job %s result: %w", h.ID, err)
			}
			o.result = buf.Bytes()
			return o
		}
		if time.Now().After(deadline) {
			o.err = fmt.Errorf("job %s still %s after %v", h.ID, st.State, mixJobTimeout)
			return o
		}
		time.Sleep(delay)
		if delay < time.Millisecond {
			delay = delay * 3 / 2
		}
	}
}

// call sends one request; any answer but 2xx is an error.
func (d *daemonMix) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func (d *daemonMix) getJSON(path string, out any) error {
	return d.call(http.MethodGet, path, nil, out)
}

// Verify re-runs every distinct config directly through
// experiments.LookupExperiment(...).Run, on nproc goroutines, and checks
// that the daemon's first answer for it has the same bytes.
func (d *daemonMix) Verify(tr *Tracer) (Ops, error) {
	ops := Ops{Attempted: len(d.order)}
	fails := make([]bool, len(d.order))
	runs := make([]directRun, len(d.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < mixWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(d.order) {
					return
				}
				it := d.order[i]
				sp := tr.Begin("experiments.Run", it.kind, -1)
				res, run, err := runDirect(it)
				tr.End(sp)
				runs[i] = run
				fails[i] = err != nil || !bytes.Equal(res, d.first[it.key])
			}
		}()
	}
	wg.Wait()
	for i, it := range d.order {
		d.direct[it.key] = runs[i]
		if fails[i] {
			ops.Failed++
		}
	}
	return ops, nil
}

// runDirect runs one config through the experiment registry, as the
// daemon's workers do, and returns the compacted result JSON.
func runDirect(it verifyItem) ([]byte, directRun, error) {
	r, ok := experiments.LookupExperiment(it.experiment)
	if !ok {
		return nil, directRun{}, fmt.Errorf("no experiment %q", it.experiment)
	}
	cfg, err := r.DecodeConfig(it.config)
	if err != nil {
		return nil, directRun{}, err
	}
	sess := obs.NewSession(obs.Options{})
	t0 := time.Now()
	res, err := r.Run(sess, cfg)
	run := directRun{dur: time.Since(t0), counters: map[string]float64{}}
	if err != nil {
		return nil, run, err
	}
	for _, m := range sess.MachineRecords() {
		for _, c := range m.Counters {
			run.counters[c.Name] += c.Value
		}
		run.counters["sim_ns"] += float64(m.SimTimeNs)
	}
	b, err := json.Marshal(res)
	return b, run, err
}

// Accesses sums the simulated references of the configs the daemon
// simulated in untraced units, from their direct re-runs: the simulator
// is deterministic, so the daemon's run made the same references.
func (d *daemonMix) Accesses() uint64 {
	var n float64
	for _, k := range d.untraced {
		n += d.direct[k].counters["mon.accesses"]
	}
	return uint64(n)
}

func (d *daemonMix) Digest() string { return d.check.unit }

func (d *daemonMix) Layers(*Tracer) map[string]float64 {
	out := zeroLayers()
	if d.batches == 0 {
		return out
	}
	n := float64(d.batches)
	var submit, hit, wait, run []float64
	var acc, subMiss, localMiss, drops float64
	d.startsMu.Lock()
	defer d.startsMu.Unlock()
	for _, o := range d.traced {
		ms := float64(o.submit) / float64(time.Millisecond)
		if o.cached {
			hit = append(hit, ms)
			continue
		}
		submit = append(submit, ms)
		run = append(run, o.runSec*1000)
		if t, ok := d.starts[o.id]; ok {
			wait = append(wait, float64(t.Sub(o.posted))/float64(time.Millisecond))
		}
		c := d.direct[o.key].counters
		acc += c["mon.accesses"]
		subMiss += c["mon.sub_misses"]
		localMiss += c["mon.local_misses"]
		drops += c["coh.drops"]
	}
	byKind := map[string][]float64{}
	for _, it := range d.order {
		byKind[it.kind] = append(byKind[it.kind], float64(d.direct[it.key].dur)/float64(time.Millisecond))
	}
	for _, k := range jobKinds {
		out["experiments."+k+".run_ms"] = median(byKind[k])
	}
	out["server.submit_ms.p50"] = quantile(submit, 0.5)
	out["server.submit_ms.p95"] = quantile(submit, 0.95)
	out["server.hit_ms.p50"] = quantile(hit, 0.5)
	out["jobq.wait_ms.p50"] = quantile(wait, 0.5)
	out["jobq.wait_ms.p95"] = quantile(wait, 0.95)
	out["jobq.run_ms.p50"] = quantile(run, 0.5)
	if d.appendsN > 0 {
		out["jobq.journal_appends"] = float64(d.appends) / float64(d.appendsN)
	}
	q0, qN := d.stats0.Queue, d.statsN.Queue
	out["jobq.retried"] = float64(qN.Retried-q0.Retried) / n
	out["jobq.rejected"] = float64(qN.Rejected-q0.Rejected) / n
	out["jobq.failed"] = float64(qN.Failed-q0.Failed) / n
	c0, cN := d.stats0.Cache, d.statsN.Cache
	hits, misses := float64(cN.Hits-c0.Hits), float64(cN.Misses-c0.Misses)
	out["resultcache.hit_ratio"] = ratio(hits, hits+misses)
	out["resultcache.stores"] = float64(cN.Stores-c0.Stores) / n
	out["resultcache.evictions"] = float64(cN.Evictions-c0.Evictions) / n
	out["cache.accesses"] = acc / n
	out["cache.sub_miss_ratio"] = ratio(subMiss, acc)
	out["cache.local_miss_ratio"] = ratio(localMiss, subMiss)
	out["cache.evictions"] = drops / n
	return out
}

func (d *daemonMix) Close() {
	if err := d.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
}
