package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobq"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/server/api"
)

func newTestServer(t *testing.T, workers, queueCap int) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := resultcache.Open("", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: workers, QueueCap: queueCap, Cache: cache, ArtifactsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(2 * time.Second)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, base, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st api.JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if isTerminal(st.State) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return api.JobStatus{}
}

func TestSubmitRunAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, 2, 8)

	spec := api.JobSpec{Experiment: "alloc"}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil || len(sub.Jobs) != 1 {
		t.Fatalf("submit response %s: %v", body, err)
	}
	first := waitJob(t, ts.URL, sub.Jobs[0].ID)
	if first.State != api.StateDone || first.Cached {
		t.Fatalf("first run: %+v", first)
	}
	if len(first.Result) == 0 || first.Text == "" {
		t.Fatalf("first run missing result payload: %+v", first)
	}
	if first.ManifestFile == "" {
		t.Error("first run wrote no manifest artifact")
	}

	// Identical submission: answered from cache, byte-identical payload.
	resp2, body2 := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", resp2.StatusCode)
	}
	var sub2 api.SubmitResponse
	json.Unmarshal(body2, &sub2)
	if !sub2.Jobs[0].Cached || sub2.Jobs[0].State != api.StateDone {
		t.Fatalf("resubmit not served from cache: %+v", sub2.Jobs[0])
	}
	if sub2.Jobs[0].Key != sub.Jobs[0].Key {
		t.Errorf("cache key changed across identical submissions")
	}
	second := waitJob(t, ts.URL, sub2.Jobs[0].ID)
	if !bytes.Equal(second.Result, first.Result) || second.Text != first.Text {
		t.Error("cached result not byte-identical to computed result")
	}

	// Recompute bypasses the cache and produces the same bytes again —
	// determinism regression guard at the service level.
	spec.Recompute = true
	_, body3 := postJSON(t, ts.URL+"/v1/jobs", spec)
	var sub3 api.SubmitResponse
	json.Unmarshal(body3, &sub3)
	if sub3.Jobs[0].Cached {
		t.Fatal("recompute was served from cache")
	}
	third := waitJob(t, ts.URL, sub3.Jobs[0].ID)
	if !bytes.Equal(third.Result, first.Result) || third.Text != first.Text {
		t.Error("recomputed result differs from first run: simulator nondeterminism or state leak across jobs")
	}
}

func TestSubmitBatchAndConfigOverride(t *testing.T) {
	_, ts := newTestServer(t, 2, 8)
	req := api.SubmitRequest{Jobs: []api.JobSpec{
		{Experiment: "alloc"},
		{Experiment: "latency", Config: json.RawMessage(`{"Cells":8,"RegionBytes":16384,"Procs":[1,2]}`)},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: status %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil || len(sub.Jobs) != 2 {
		t.Fatalf("batch response %s", body)
	}
	if sub.Jobs[0].Key == sub.Jobs[1].Key {
		t.Error("different experiments share a cache key")
	}
	for _, h := range sub.Jobs {
		st := waitJob(t, ts.URL, h.ID)
		if st.State != api.StateDone {
			t.Errorf("job %s: state %s (%s)", h.ID, st.State, st.Error)
		}
		// The canonical config must carry the defaults (and overrides).
		if len(st.Config) == 0 {
			t.Errorf("job %s: no canonical config", h.ID)
		}
	}

	// The API's rendered text for the latency job must match what the
	// local CLI would print for the same config.
	lat := waitJob(t, ts.URL, sub.Jobs[1].ID)
	cfg := experiments.DefaultLatencyConfig()
	cfg.Cells = 8
	cfg.RegionBytes = 16384
	cfg.Procs = []int{1, 2}
	want, err := experiments.RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Text != fmt.Sprint(want) {
		t.Errorf("API text differs from local run:\napi:\n%s\nlocal:\n%s", lat.Text, want)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)
	for name, body := range map[string]any{
		"unknown experiment": api.JobSpec{Experiment: "warp-drive"},
		"unknown field":      api.JobSpec{Experiment: "latency", Config: json.RawMessage(`{"Cels":8}`)},
		"empty batch":        api.SubmitRequest{Jobs: []api.JobSpec{}},
	} {
		resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, b)
		}
		var e api.ErrorResponse
		if json.Unmarshal(b, &e) != nil || e.Error == "" {
			t.Errorf("%s: no error body in %s", name, b)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)
	// Occupy the single worker and fill the single queue slot with inert
	// jobs so a real submission must be rejected.
	gate := make(chan struct{})
	defer close(gate)
	s.queue.Submit("blocker-running", 0, jobq.Options{}, func(context.Context) error { <-gate; return nil })
	for s.queue.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	s.queue.Submit("blocker-queued", 0, jobq.Options{}, func(context.Context) error { return nil })

	resp, body := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Experiment: "alloc", Recompute: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil || len(sub.Jobs) != 1 {
		t.Fatalf("429 body %s", body)
	}
	if sub.Jobs[0].State != api.StateRejected || sub.Jobs[0].Error == "" {
		t.Errorf("rejected handle = %+v", sub.Jobs[0])
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, 1, 8)
	gate := make(chan struct{})
	defer close(gate)
	s.queue.Submit("blocker", 0, jobq.Options{}, func(context.Context) error { <-gate; return nil })
	for s.queue.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	_, body := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Experiment: "alloc", Recompute: true})
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	id := sub.Jobs[0].ID

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != api.StateCancelled {
		t.Fatalf("cancel queued job: state %s", st.State)
	}
}

func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, 1, 8)
	_, body := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Experiment: "alloc", Recompute: true})
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	id := sub.Jobs[0].ID

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var sawEnd bool
	var lastState string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.JobID != id {
			t.Errorf("event for wrong job: %+v", ev)
		}
		lastState = ev.State
		if ev.Type == "end" {
			sawEnd = true
			break
		}
	}
	if !sawEnd {
		t.Fatal("stream closed without an end event")
	}
	if lastState != api.StateDone {
		t.Errorf("final state %q, want done", lastState)
	}
}

func TestHealthAndStatsAndExperiments(t *testing.T) {
	s, ts := newTestServer(t, 1, 4)
	var h api.Health
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: code %d, %+v", code, h)
	}
	if h.GoVersion == "" {
		t.Error("healthz missing go version")
	}

	var infos []api.ExperimentInfo
	if code := getJSON(t, ts.URL+"/v1/experiments", &infos); code != http.StatusOK {
		t.Fatalf("experiments: code %d", code)
	}
	names := make(map[string]bool)
	for _, in := range infos {
		if in.Describe == "" {
			t.Errorf("experiment %s has no description", in.Name)
		}
		names[in.Name] = true
	}
	for _, want := range []string{"latency", "barriers", "cg", "faults"} {
		if !names[want] {
			t.Errorf("experiment %q not listed", want)
		}
	}

	_, body := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Experiment: "alloc"})
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	waitJob(t, ts.URL, sub.Jobs[0].ID)

	var stats api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	if stats.Queue.Submitted == 0 || stats.Queue.Workers != 1 {
		t.Errorf("queue stats = %+v", stats.Queue)
	}
	if stats.Cache.Stores == 0 {
		t.Errorf("cache stats show no store after a completed job: %+v", stats.Cache)
	}
	if stats.Jobs[api.StateDone] == 0 {
		t.Errorf("job state counts = %v", stats.Jobs)
	}

	// Drain flips health to draining/503 and refuses new submissions.
	if clean := s.Drain(5 * time.Second); !clean {
		t.Error("drain of idle server not clean")
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("draining healthz: code %d, %+v", code, h)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Experiment: "alloc"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d", resp.StatusCode)
	}
}

func TestObserveOptionsProduceArtifactsButNotNewKeys(t *testing.T) {
	_, ts := newTestServer(t, 1, 8)
	plain := api.JobSpec{Experiment: "alloc"}
	observed := api.JobSpec{
		Experiment: "alloc",
		Recompute:  true,
		Observe:    &api.ObserveOptions{Trace: true, TraceCats: "all", SampleNs: 1_000_000},
	}
	_, b1 := postJSON(t, ts.URL+"/v1/jobs", plain)
	var s1 api.SubmitResponse
	json.Unmarshal(b1, &s1)
	waitJob(t, ts.URL, s1.Jobs[0].ID)

	_, b2 := postJSON(t, ts.URL+"/v1/jobs", observed)
	var s2 api.SubmitResponse
	json.Unmarshal(b2, &s2)
	st := waitJob(t, ts.URL, s2.Jobs[0].ID)

	if s1.Jobs[0].Key != s2.Jobs[0].Key {
		t.Error("observe options changed the cache key")
	}
	if st.TraceFile == "" {
		t.Error("observed job wrote no trace artifact")
	}
	if st.ManifestFile == "" {
		t.Error("observed job wrote no manifest artifact")
	}
}

// TestBackToBackJobsIdenticalCounters is the regression guard for
// cross-job state: two identical jobs executed back-to-back on one
// daemon (second forced past the cache) must report byte-identical
// machine counter snapshots in their manifests. Each job gets a fresh
// obs.Session and fresh machines, so nothing — counters, RNG state,
// sampler rows — may leak from the first run into the second.
func TestBackToBackJobsIdenticalCounters(t *testing.T) {
	_, ts := newTestServer(t, 1, 8)
	spec := api.JobSpec{
		Experiment: "latency",
		Config:     json.RawMessage(`{"Cells":8,"RegionBytes":16384,"Procs":[1,2]}`),
		Recompute:  true,
	}
	var manifests [2][]byte
	for i := range manifests {
		_, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		var sub api.SubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil || len(sub.Jobs) != 1 {
			t.Fatalf("submit %d: %s", i, body)
		}
		st := waitJob(t, ts.URL, sub.Jobs[0].ID)
		if st.State != api.StateDone {
			t.Fatalf("run %d: state %s (%s)", i, st.State, st.Error)
		}
		if st.ManifestFile == "" {
			t.Fatalf("run %d wrote no manifest", i)
		}
		b, err := os.ReadFile(st.ManifestFile)
		if err != nil {
			t.Fatal(err)
		}
		m, err := obs.ValidateManifest(b)
		if err != nil {
			t.Fatalf("run %d manifest invalid: %v", i, err)
		}
		if len(m.Machines) == 0 {
			t.Fatalf("run %d manifest has no machine records", i)
		}
		machines, err := json.Marshal(m.Machines)
		if err != nil {
			t.Fatal(err)
		}
		manifests[i] = machines
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Errorf("machine counters differ between back-to-back identical jobs:\nfirst:  %s\nsecond: %s",
			manifests[0], manifests[1])
	}
}

func TestJobIDsAreUniqueAndGetUnknown404s(t *testing.T) {
	_, ts := newTestServer(t, 1, 8)
	if code := getJSON(t, ts.URL+"/v1/jobs/job-zzz", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d", code)
	}
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		_, b := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Experiment: "alloc"})
		var sub api.SubmitResponse
		if err := json.Unmarshal(b, &sub); err != nil || len(sub.Jobs) != 1 {
			t.Fatalf("submit %d: %s", i, b)
		}
		id := sub.Jobs[0].ID
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		waitJob(t, ts.URL, id)
	}
}

func TestDecodeSubmitShapes(t *testing.T) {
	if _, err := decodeSubmit([]byte(`{"experiment":"alloc"}`)); err != nil {
		t.Errorf("bare spec rejected: %v", err)
	}
	if specs, err := decodeSubmit([]byte(`{"jobs":[{"experiment":"a"},{"experiment":"b"}]}`)); err != nil || len(specs) != 2 {
		t.Errorf("batch: specs=%v err=%v", specs, err)
	}
	if _, err := decodeSubmit([]byte(`{"experiment":"alloc","bogus":1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := decodeSubmit([]byte(`[1,2,3]`)); err == nil {
		t.Error("non-object body accepted")
	}
}

// TestFinishedJobsReleaseSessions pins the daemon's memory bound: a
// session holds every machine its run built, so once a job's run
// returns, the job record must no longer reference it.
func TestFinishedJobsReleaseSessions(t *testing.T) {
	s, ts := newTestServer(t, 2, 8)
	const n = 4
	var ids []string
	for i := 0; i < n; i++ {
		spec := api.JobSpec{
			Experiment: "latency",
			Config:     json.RawMessage(fmt.Sprintf(`{"Cells":%d,"RegionBytes":8192,"Procs":[1]}`, i+2)),
		}
		_, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		var sub api.SubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil || len(sub.Jobs) != 1 {
			t.Fatalf("submit %d: %s", i, body)
		}
		ids = append(ids, sub.Jobs[0].ID)
	}
	for _, id := range ids {
		if st := waitJob(t, ts.URL, id); st.State != api.StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	// Drain returns once every worker has exited, so every run has
	// returned and its deferred release has run.
	if !s.Drain(2 * time.Second) {
		t.Fatal("drain was not clean")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != n {
		t.Fatalf("server tracks %d jobs, want %d", len(s.jobs), n)
	}
	for id, j := range s.jobs {
		j.mu.Lock()
		held := j.sess != nil
		j.mu.Unlock()
		if held {
			t.Errorf("finished job %s still holds its obs.Session", id)
		}
	}
}
