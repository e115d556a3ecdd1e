package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of that layer.
type Span struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// Parent is the index of the span that caused this one, -1 at a root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// Tracer keeps the spans of a traced phase in memory; they are written
// out when the run ends. All methods are safe on a nil *Tracer, which
// records nothing, and safe for concurrent use.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span

	// Filled from the CPU profile when the traced phase ends.
	cpuShares   map[string]float64 // "<module>.cpu_share" -> share of samples
	phaseShares map[string]float64 // pprof "phase" label -> share of samples
	profile     []byte
	file        string
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its index, or -1 on a nil Tracer.
func (t *Tracer) Begin(name, detail string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Detail: detail, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// Total returns the summed duration of the closed spans named name
// whose detail starts with prefix.
func (t *Tracer) Total(name, prefix string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && strings.HasPrefix(s.Detail, prefix) {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// selfTimes returns, per span name, the summed span time in seconds not
// covered by the span's direct children.
func (t *Tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if d := s.End - s.Start - child[i]; d > 0 {
			self[s.Name] += float64(d) / 1e9
		}
	}
	return self
}

// write stores the spans, the CPU shares and the raw CPU profile under
// dir, named after the workload and seed.
func (t *Tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d", workload, seed))
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{
		"spans":       t.spans,
		"cpu_share":   t.cpuShares,
		"phase_share": t.phaseShares,
	})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	t.file = base + ".json"
	return os.WriteFile(base+".cpu.pb.gz", t.profile, 0o644)
}

// cpuProfile is a running CPU profile of the traced phase.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and buckets its samples into tr.
func (p *cpuProfile) stop(tr *Tracer) error {
	pprof.StopCPUProfile()
	tr.profile = p.buf.Bytes()
	stacks, err := parseProfile(tr.profile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	tr.cpuShares, tr.phaseShares = shares(stacks)
	return nil
}

// cpuModules are the buckets of the <module>.cpu_share metrics.
var cpuModules = []string{
	"sim", "fabric", "coherence", "cache", "machine", "ksync", "kernels",
	"workload", "server", "jobq", "resultcache", "runtime.sched", "runtime.gc", "other",
}

// profStack is one profile sample: its weight, its frames from the leaf
// up, and its "phase" label.
type profStack struct {
	weight int64
	frames []string
	phase  string
}

// shares buckets samples by module and by phase label.
func shares(stacks []profStack) (byModule, byPhase map[string]float64) {
	byModule = make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		byModule[m+".cpu_share"] = 0
	}
	byPhase = make(map[string]float64)
	var total int64
	for _, s := range stacks {
		total += s.weight
	}
	if total == 0 {
		return byModule, byPhase
	}
	for _, s := range stacks {
		w := float64(s.weight) / float64(total)
		byModule[bucket(s.frames)+".cpu_share"] += w
		phase := s.phase
		if phase == "" {
			phase = "unlabeled"
		}
		byPhase[phase] += w
	}
	return byModule, byPhase
}

// bucket names the module a sample is charged to. A leaf in one of the
// listed layers is charged to that layer. A runtime leaf is charged to
// runtime.gc when the stack is allocating or collecting, to
// runtime.sched when it is scheduling, parking or waking goroutines, and
// otherwise (memmove, map access and the like) to the nearest layer
// above it. A leaf in any other package (the rest of the standard
// library, or an unlisted repository package such as memory or obs) is
// likewise charged to the nearest layer above it, unless the benchmark's
// own code comes first. What is left is "other".
func bucket(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if m, ok := layerOf(frames[0]); ok {
		return m
	}
	if isRuntime(pkgOf(frames[0])) {
		for _, f := range frames {
			if hasAnyPrefix(f, gcFrames) {
				return "runtime.gc"
			}
		}
		for _, f := range frames {
			if hasAnyPrefix(f, schedFrames) {
				return "runtime.sched"
			}
		}
	}
	for _, f := range frames {
		if m, ok := layerOf(f); ok {
			return m
		}
		if pkgOf(f) == "main" {
			return "other"
		}
	}
	return "other"
}

var gcFrames = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*mcentral)",
	"runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.chanrecv", "runtime.chansend",
	"runtime.selectgo", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
	"runtime.mcall", "runtime.lock2", "runtime.unlock2", "runtime.casgstatus",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.netpoll",
	"runtime.usleep", "runtime.osyield", "runtime.semacquire", "runtime.semrelease",
	"runtime.newproc", "runtime.runqgrab", "runtime.execute", "runtime.gogo",
	"runtime.sysmon", "runtime.handoff",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf maps a function to its layer when it is in one of the
// repository's measured packages.
func layerOf(fn string) (string, bool) {
	pkg := pkgOf(fn)
	m, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		return "", false
	}
	for _, l := range cpuModules {
		if l == m {
			return m, true
		}
	}
	return "", false
}

// pkgOf returns the import path of a profile function name such as
// "repro/internal/sim.(*Engine).Run".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// parseProfile decodes a gzipped pprof profile into weighted stacks. It
// reads only the fields it needs: samples (locations, values, labels),
// locations (lines), functions (names) and the string table.
func parseProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, str (string-table indices)
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				case 3:
					var kv [2]uint64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profStack{weight: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				ps.frames = append(ps.frames, str(fnName[f]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" {
				ps.phase = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the top-level fields of one protobuf message, passing
// varint values as v and length-delimited payloads as b.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendPacked appends one repeated-varint field, packed (b != nil) or not.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
