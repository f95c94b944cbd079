package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cohesion"
)

// serveWL is the job path and the write side of the snapshot layer: an
// in-process job server (2 workers, the default queue and checkpoint
// interval) behind a loopback listener, driven by a closed loop of 2
// clients that each submit a job, poll it every 5 ms, and fetch and check
// its result. Its set-up step is a restart: server start, recovering a
// state directory that holds size.serveHistory finished jobs, until
// /healthz answers.
type serveWL struct {
	jobs []servedJob // by job index, from the latest pass
}

type servedJob struct {
	rc   cohesion.RunConfig
	view cohesion.JobView
}

const (
	serveClients = 2
	serveRound   = 24 // one job per kernel × mode
	pollEvery    = 5 * time.Millisecond
)

var modeNames = []string{"swcc", "hwcc", "cohesion"} // same order as modes

// jobConfig is job i's run: kernel i%8 under mode (i/8)%3.
func jobConfig(seed int64, i int) (cohesion.JobSpec, cohesion.RunConfig) {
	k := cohesion.KernelNames()[i%8]
	m := (i / 8) % 3
	spec := cohesion.JobSpec{Kernel: k, Mode: modeNames[m], Clusters: size.serveClusters,
		Scale: size.serveScale, Seed: seed, Verify: true}
	rc := cohesion.RunConfig{Machine: cohesion.ScaledConfig(size.serveClusters).WithMode(modes[m]),
		Kernel: k, Scale: size.serveScale, Seed: seed, Verify: true}
	return spec, rc
}

// fillHistory runs size.serveHistory small jobs to completion on a fresh
// server over state, so that later starts recover a service with a past.
func fillHistory(state string) error {
	if err := os.RemoveAll(state); err != nil {
		return err
	}
	js, err := cohesion.NewJobServer(cohesion.ServeOptions{StateDir: state, Workers: 2})
	if err != nil {
		return err
	}
	var ids []string
	for i := 0; i < size.serveHistory; {
		id, err := js.Submit(cohesion.JobSpec{Kernel: cohesion.KernelNames()[i%8], Mode: modeNames[i%3], Seed: int64(i)})
		if errors.Is(err, cohesion.ErrServerSaturated) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			return err
		}
		ids = append(ids, id)
		i++
	}
	for _, id := range ids {
		v, _ := js.Job(id)
		for ; !v.State.Terminal(); v, _ = js.Job(id) {
			time.Sleep(time.Millisecond)
		}
		if v.State != cohesion.JobDone {
			return fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
		}
	}
	return js.Drain(ctx)
}

// server is a running job server.
type server struct {
	js   *cohesion.JobServer
	http *http.Server
	url  string
	done chan error
}

func startServer(stateDir string, client *http.Client) (*server, error) {
	js, err := cohesion.NewJobServer(cohesion.ServeOptions{StateDir: stateDir, Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{js: js, http: &http.Server{Handler: js.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	resp, err := client.Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the job server and closes the listener, waiting for both.
func (s *server) stop() error {
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := s.js.Drain(dctx)
	if serr := s.http.Shutdown(dctx); err == nil {
		err = serr
	}
	<-s.done
	return err
}

func (w *serveWL) run(p *pass) error {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}, Timeout: time.Minute}
	defer client.CloseIdleConnections()
	state := filepath.Join(p.work, "serve")
	if err := fillHistory(state); err != nil {
		return fmt.Errorf("serve history: %w", err)
	}
	var srv *server
	for rep := 0; rep < size.setupReps; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		err := p.setup(func() (err error) {
			srv, err = startServer(state, client)
			return err
		})
		if err != nil {
			return fmt.Errorf("serve set-up: %w", err)
		}
	}

	p.warmUp(func() { w.closedLoop(p, client, srv.url, 0) })
	p.measure(func() { w.closedLoop(p, client, srv.url, p.seconds) })
	return srv.stop()
}

// closedLoop runs jobs from serveClients clients until d has passed,
// always finishing the round of 24 it is in. Clients claim job indices in
// order; the first to notice that d has passed sets the end to the next
// multiple of 24.
func (w *serveWL) closedLoop(p *pass, client *http.Client, url string, d time.Duration) {
	var next, end atomic.Int64
	end.Store(math.MaxInt64)
	w.jobs = nil
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 1; lane <= serveClients; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if int64(i) >= end.Load() {
					return
				}
				j := w.job(p, client, url, i, lane)
				mu.Lock()
				for len(w.jobs) <= i {
					w.jobs = append(w.jobs, servedJob{})
				}
				w.jobs[i] = j
				mu.Unlock()
				if time.Since(start) >= d {
					end.CompareAndSwap(math.MaxInt64, (next.Load()+serveRound-1)/serveRound*serveRound)
				}
			}
		}()
	}
	wg.Wait()
}

// job runs job i through the HTTP API and records it as an op. Its
// latency runs from the client's POST to the server-stamped end.
func (w *serveWL) job(p *pass, client *http.Client, url string, i, lane int) servedJob {
	spec, rc := jobConfig(p.seed, i)
	kind := spec.Kernel + "/" + spec.Mode
	s := p.tr.start(p.root, lane, kind)
	o := op{kind: kind, round: i / serveRound, index: i % serveRound, start: p.now()}
	j := servedJob{rc: rc}
	t0 := time.Now()
	err := func() error {
		body, _ := json.Marshal(spec)
		var sub struct{ ID string }
		var err error
		d := timed(s, "POST /v1/jobs", func() { err = call(client, "POST", url+"/v1/jobs", body, http.StatusAccepted, &sub) })
		p.sample("serve.submit_ms", ms(d))
		if err != nil {
			return err
		}
		timed(s, "poll /v1/jobs/{id}", func() {
			for err == nil && !j.view.State.Terminal() {
				time.Sleep(pollEvery)
				err = call(client, "GET", url+"/v1/jobs/"+sub.ID, nil, http.StatusOK, &j.view)
			}
		})
		if err != nil {
			return err
		}
		var out struct {
			State   string
			Outcome *cohesion.JobOutcome
			Error   string
		}
		timed(s, "GET /v1/jobs/{id}/result", func() {
			err = call(client, "GET", url+"/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK, &out)
		})
		switch {
		case err != nil:
			return err
		case out.State != string(cohesion.JobDone) || out.Outcome == nil || out.Outcome.Partial:
			return fmt.Errorf("job %s ended %s: %s", sub.ID, out.State, out.Error)
		}
		fp, err1 := strconv.ParseUint(out.Outcome.MemFingerprint, 0, 64)
		sd, err2 := strconv.ParseUint(out.Outcome.StatsDigest, 0, 64)
		if err1 != nil || err2 != nil || out.Outcome.Events == 0 {
			return fmt.Errorf("job %s: malformed outcome %+v", sub.ID, *out.Outcome)
		}
		o.c = counts{events: out.Outcome.Events, cycles: out.Outcome.Cycles, instructions: out.Outcome.Instructions,
			l2Messages: out.Outcome.MessagesTotal, fp: fp ^ sd*fnvPrime}
		return nil
	}()
	s.stop()
	o.err = err
	if err == nil {
		v := j.view
		o.dur = time.Duration((float64(v.EndedMS) - float64(t0.UnixMicro())/1000) * float64(time.Millisecond))
		p.sample("serve.queue_ms", float64(v.StartedMS-v.SubmittedMS))
		p.sample("serve.run_ms", float64(v.EndedMS-v.StartedMS))
	}
	p.record(o)
	return j
}

// call sends one request and decodes a JSON response with the wanted status.
func call(client *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// layers replays the first jobs through cohesion.RunCtx without
// checkpoints, for the share of job time that checkpointing takes, and
// checks each replay against the served result.
func (w *serveWL) layers(p *pass) error {
	var bare, run, events float64
	for i, j := range w.jobs[:min(size.serveBare, len(w.jobs))] {
		if j.view.Outcome == nil {
			continue // the job failed, and its op counts that
		}
		var res *cohesion.Result
		var err error
		d := timed(p.root, "cohesion.RunCtx", func() { res, err = cohesion.RunCtx(ctx, j.rc) })
		if err != nil {
			return fmt.Errorf("bare replay of job %d: %w", i, err)
		}
		if j.view.Outcome.MemFingerprint != fmt.Sprintf("%#016x", res.MemFingerprint) {
			p.failCheck()
			continue
		}
		p.sample("serve.bare_run_ms", ms(d))
		bare += float64(d)
		run += float64(j.view.EndedMS-j.view.StartedMS) * float64(time.Millisecond)
		events += float64(res.Stats.Events)
	}
	p.setValue("serve.ckpt_share", 1-ratio(bare, run))
	p.setValue("cohesion.ns_per_event", ratio(bare, events))
	return nil
}
