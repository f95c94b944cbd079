package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cohesion/internal/runctl"
	"cohesion/internal/simerr"
)

// fakeEngine is a scriptable Engine for unit tests: it blocks until
// released (so tests can hold a worker busy), honors cancellation, and
// fabricates a deterministic outcome from the spec.
type fakeEngine struct {
	mu      sync.Mutex
	block   chan struct{} // when non-nil, Execute waits for close or ctx
	started chan string   // receives job kernel when Execute begins, if non-nil
	fail    error         // returned (with a partial outcome) when set
}

func (f *fakeEngine) Execute(ctx context.Context, spec JobSpec, ckptPath string, every uint64, lim runctl.Limits, resume bool) (*Outcome, bool, error) {
	f.mu.Lock()
	block, started, fail := f.block, f.started, f.fail
	f.mu.Unlock()
	if started != nil {
		started <- spec.Kernel
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return &Outcome{MemFingerprint: "0xpartial", Partial: true, StopReason: "canceled"},
				false, fmt.Errorf("fake: %w", simerr.ErrCanceled)
		}
	}
	if fail != nil {
		return &Outcome{Partial: true, StopReason: "failed"}, false, fail
	}
	// Deterministic fingerprint derived from the spec so bit-correctness
	// can be asserted without a real simulator.
	return &Outcome{
		MemFingerprint: fmt.Sprintf("0x%s-%s-%d", spec.Kernel, spec.Mode, spec.Seed),
		StatsDigest:    "0xdead",
		Events:         100,
		Cycles:         200,
	}, resume, nil
}

func newTestServer(t *testing.T, eng Engine, opt Options) *Server {
	t.Helper()
	if opt.StateDir == "" {
		opt.StateDir = t.TempDir()
	}
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 4
	}
	s, err := New(eng, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	return s
}

func goodSpec() JobSpec {
	return JobSpec{Kernel: "heat", Mode: "cohesion", Clusters: 2, Scale: 1, Seed: 42}
}

func waitState(t *testing.T, s *Server, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Job(id)
		if ok && v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.Job(id)
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, v)
	return JobView{}
}

func TestServeSubmitRunsToDone(t *testing.T) {
	s := newTestServer(t, &fakeEngine{}, Options{})
	id, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := waitState(t, s, id, StateDone)
	if v.Outcome == nil || v.Outcome.MemFingerprint != "0xheat-cohesion-42" {
		t.Fatalf("outcome = %+v, want fake fingerprint", v.Outcome)
	}
}

func TestServeValidationHTTP(t *testing.T) {
	s := newTestServer(t, &fakeEngine{}, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		body       string
		wantFields []string
	}{
		{"malformed JSON", `{"kernel": `, []string{"body"}},
		{"unknown field", `{"kernel":"heat","mode":"cohesion","bogus":1}`, []string{"bogus"}},
		{"unknown kernel", `{"kernel":"nope","mode":"cohesion"}`, []string{"kernel"}},
		{"unknown mode", `{"kernel":"heat","mode":"mesi"}`, []string{"mode"}},
		{"negative budgets", `{"kernel":"heat","mode":"swcc","max_events":-1,"max_wall_ms":-5}`,
			[]string{"max_events", "max_wall_ms"}},
		{"scale out of range", `{"kernel":"heat","mode":"swcc","scale":9999}`, []string{"scale"}},
		{"several at once", `{"kernel":"nope","mode":"mesi","clusters":-3}`,
			[]string{"kernel", "mode", "clusters"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("decoding error body: %v", err)
			}
			got := map[string]bool{}
			for _, f := range eb.Fields {
				if f.Field == "" || f.Msg == "" {
					t.Fatalf("unnamed field error: %+v", f)
				}
				got[f.Field] = true
			}
			for _, want := range tc.wantFields {
				if !got[want] {
					t.Errorf("missing field error %q in %+v", want, eb.Fields)
				}
			}
		})
	}
}

func TestServeSaturationSheds429(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{}), started: make(chan string, 1)}
	s := newTestServer(t, eng, Options{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(eng.block)

	submit := func() *http.Response {
		body, _ := json.Marshal(goodSpec())
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}

	// First job occupies the single worker...
	resp := submit()
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	<-eng.started // worker is now provably inside Execute
	// ...second fills the queue slot...
	resp = submit()
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", resp.StatusCode)
	}
	// ...third must be shed, never queued or hung.
	resp = submit()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	if eb.RetryAfterMS != 2000 {
		t.Errorf("retry_after_ms = %d, want 2000", eb.RetryAfterMS)
	}
}

func TestServeCancelQueuedAndRunning(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{}), started: make(chan string, 2)}
	s := newTestServer(t, eng, Options{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	running, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-eng.started
	queued, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	doDelete := func(id string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		return resp
	}

	// Canceling a queued job is immediate and terminal.
	resp := doDelete(queued)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued = %d, want 202", resp.StatusCode)
	}
	v := waitState(t, s, queued, StateCanceled)
	if v.Error == "" {
		t.Error("canceled-while-queued job should carry an error message")
	}

	// Canceling the running job stops it cooperatively with a partial
	// outcome; /result answers 200 with the partial-result shape.
	resp = doDelete(running)
	resp.Body.Close()
	waitState(t, s, running, StateCanceled)
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + running + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result of canceled job = %d, want 200", rresp.StatusCode)
	}
	var body struct {
		State   State    `json:"state"`
		Outcome *Outcome `json:"outcome"`
		Error   string   `json:"error"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if body.State != StateCanceled || body.Outcome == nil || !body.Outcome.Partial || body.Error == "" {
		t.Fatalf("partial-result shape = %+v, want canceled + partial outcome + error", body)
	}

	// Unfinished jobs 409 on /result: submit one more and check before release.
	close(eng.block)
}

func TestServeResultLifecycle(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{}), started: make(chan string, 1)}
	s := newTestServer(t, eng, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-eng.started
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running = %d, want 409", resp.StatusCode)
	}
	close(eng.block)
	waitState(t, s, id, StateDone)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result when done = %d, want 200", resp.StatusCode)
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/j-999999/result"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("result of unknown job = %d, want 404", resp.StatusCode)
		}
	}
}

func TestServeFailedJobKeepsPartialOutcome(t *testing.T) {
	eng := &fakeEngine{fail: fmt.Errorf("boom: %w", simerr.ErrBudgetExhausted)}
	s := newTestServer(t, eng, Options{})
	id, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := waitState(t, s, id, StateFailed)
	if v.Outcome == nil || !v.Outcome.Partial || v.Error == "" {
		t.Fatalf("failed job view = %+v, want partial outcome + error", v)
	}
}

func TestServePanickingEngineIsContained(t *testing.T) {
	eng := &panicEngine{}
	s := newTestServer(t, eng, Options{Workers: 1})
	id, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v := waitState(t, s, id, StateFailed)
	if !strings.Contains(v.Error, "panicked") {
		t.Fatalf("error = %q, want contained panic", v.Error)
	}
	// The worker survived: the next job still runs.
	id2, err := s.Submit(JobSpec{Kernel: "heat", Mode: "swcc"})
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	waitState(t, s, id2, StateFailed) // panics again, but is processed
}

type panicEngine struct{}

func (panicEngine) Execute(context.Context, JobSpec, string, uint64, runctl.Limits, bool) (*Outcome, bool, error) {
	panic("kernel exploded")
}

func TestServePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng := &fakeEngine{}
	s := newTestServer(t, eng, Options{StateDir: dir})
	id, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, s, id, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// A new server over the same dir reports the finished job unchanged
	// and does not re-run it.
	s2, err := New(&fakeEngine{fail: fmt.Errorf("must not run")}, Options{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("New over old state: %v", err)
	}
	defer s2.Drain(context.Background())
	v, ok := s2.Job(id)
	if !ok || v.State != StateDone {
		t.Fatalf("recovered job = %+v, want done", v)
	}
	if v.Outcome == nil || v.Outcome.MemFingerprint != done.Outcome.MemFingerprint {
		t.Fatalf("recovered outcome = %+v, want %+v", v.Outcome, done.Outcome)
	}

	// New submissions on the recovered server get fresh, non-colliding IDs.
	id2, err := s2.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit on recovered server: %v", err)
	}
	if id2 == id {
		t.Fatalf("recovered server reused job ID %s", id)
	}
}

func TestServeRecoveryRequeuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	eng := &fakeEngine{block: make(chan struct{}), started: make(chan string, 2)}
	s, err := New(eng, Options{StateDir: dir, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	idRunning, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-eng.started
	idQueued, err := s.Submit(JobSpec{Kernel: "stencil", Mode: "hwcc"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Drain without letting the blocked job finish: the drain path leaves
	// the on-disk records saying running/queued — the exact state a
	// SIGKILL would have left — while joining every goroutine.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	s2, err := New(&fakeEngine{}, Options{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("New over crashed state: %v", err)
	}
	defer s2.Drain(context.Background())
	vr := waitState(t, s2, idRunning, StateDone)
	if !vr.Resumed {
		t.Error("previously-running job should be marked resumed")
	}
	vq := waitState(t, s2, idQueued, StateDone)
	if vq.Outcome == nil || vq.Outcome.MemFingerprint != "0xstencil-hwcc-0" {
		t.Fatalf("requeued job outcome = %+v", vq.Outcome)
	}
}

func TestServeDrainingRefusesIntake(t *testing.T) {
	s := newTestServer(t, &fakeEngine{}, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	body, _ := json.Marshal(goodSpec())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hresp.StatusCode)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, &fakeEngine{}, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(goodSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, id, StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"cohesion_serve_queue_depth ",
		"cohesion_serve_jobs_submitted_total 1",
		`cohesion_serve_jobs_total{state="done"} 1`,
		"cohesion_serve_sim_events_total 100",
		`cohesion_serve_job_latency_ms_count{kernel="heat"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
}

// TestLoadAllRecordsGarbage holds what a server start pays to recover a
// history of 240 finished jobs, the job server's benchmark history: each
// record is read from its main file alone, with no failed probe for a
// .tmp that is not there, and its checksum is compared without a heap
// string.
func TestLoadAllRecordsGarbage(t *testing.T) {
	const history = 240
	dir := t.TempDir()
	if err := os.MkdirAll(jobsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	kernels := []string{"cg", "dmm", "gjk", "heat", "kmeans", "mri", "sobel", "stencil"}
	modes := []string{"swcc", "hwcc", "cohesion"}
	for i := 0; i < history; i++ {
		rec := Job{JobView: JobView{
			ID:    fmt.Sprintf("j-%06d", i),
			Spec:  JobSpec{Kernel: kernels[i%8], Mode: modes[i%3], Clusters: 2, Scale: 1, Seed: int64(i)},
			State: StateDone,
			Outcome: &Outcome{MemFingerprint: fmt.Sprintf("%#016x", 0xd61834bf34c44020+uint64(i)),
				StatsDigest: fmt.Sprintf("%#016x", 0x662a5126b9d95f9e+uint64(i)),
				Cycles:      12227 + uint64(i), Events: 15126, Instructions: 14700, MessagesTotal: 793},
			SubmittedMS: 1792216702337, StartedMS: 1792216702338, EndedMS: 1792216702344,
		}, Revision: 3}
		if err := saveRecord(dir, rec); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, err := loadAllRecords(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != history {
		t.Fatalf("loaded %d records, want %d", len(recs), history)
	}
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("loading %d records allocated %d bytes in %d mallocs", history, bytes, mallocs)
	if bytes >= 750_000 || mallocs >= 9_500 {
		t.Errorf("loading %d records allocated %d bytes in %d mallocs, want under 0.75 MB and 9,500", history, bytes, mallocs)
	}
}
