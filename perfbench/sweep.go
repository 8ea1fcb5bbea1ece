package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/tracein"
)

type sweepSizes struct {
	insts   uint64 // per context per point
	uploads int    // external traces uploaded per iteration
	named   int    // named workloads per sweep
}

func sweepSizesFor(o opts) sweepSizes {
	if o.small {
		return sweepSizes{insts: 2_000, uploads: 1, named: 1}
	}
	return sweepSizes{insts: 10_000, uploads: 2, named: 2}
}

// sweepNamed are the named workloads every sweep covers (int and
// pointer profiles); sweepFamilies and sweepContexts are its predictor
// and SMT axes: single-context and 4-context runs of three predictors.
// The set is the same for every seed, so seeds vary content, not the
// amount of work.
var (
	sweepNamed    = []string{"gcc2k", "mcf"}
	sweepFamilies = []string{"composite", "best", "eves"}
	sweepContexts = []int{1, 4}
)

// fleet is an in-process coordinator with two single-slot workers.
type fleet struct {
	coord   *cluster.Coordinator
	cts     *httptest.Server
	workers []daemon
}

func (f fleet) stop() {
	if f.cts != nil {
		f.cts.Close()
	}
	if f.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = f.coord.Shutdown(ctx) // best effort: the run's data dir is removed anyway
	}
	for _, w := range f.workers {
		w.stop()
	}
}

// startFleet starts the coordinator over a fresh data directory and
// registers two workers, each simulating one job at a time.
func startFleet(dir string, insts uint64) (fleet, error) {
	data, err := os.MkdirTemp(dir, "cluster-")
	if err != nil {
		return fleet{}, err
	}
	var f fleet
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{Workers: 1, DefaultInsts: insts, Logger: quietLog})
		if err != nil {
			f.stop()
			return fleet{}, err
		}
		srv.Start()
		f.workers = append(f.workers, daemon{srv: srv, ts: httptest.NewServer(srv.Handler())})
	}
	f.coord, err = cluster.New(cluster.Config{
		DataDir:      filepath.Join(data, "coord"),
		DefaultInsts: insts,
		Logger:       quietLog,
	})
	if err != nil {
		f.stop()
		return fleet{}, err
	}
	f.coord.Start()
	f.cts = httptest.NewServer(f.coord.Handler())
	for _, w := range f.workers {
		if _, _, err := f.coord.RegisterWorker(context.Background(), w.ts.URL); err != nil {
			f.stop()
			return fleet{}, fmt.Errorf("registering worker: %w", err)
		}
	}
	return f, nil
}

// sweepStats gathers the sweep loop's samples.
type sweepStats struct {
	makespans, uploads, hits, points latencies
	settled                          latencies // sweep submit → point settled
	dispatchWaits, runs              latencies
	pointsDone                       int
	simInsts                         uint64
	runTime                          time.Duration // Σ worker run time of fresh points
	results                          []checked
	uploaded                         []string
}

// sweepLoop is the sweep workload's closed loop: one caller uploads
// external traces, sweeps them with named workloads over the predictor
// and context axes, waits for every point, then resubmits a few
// finished points (answered from the coordinator's cache). A whole
// resubmitted sweep would measure little but the coordinator's
// per-point WAL fsyncs, whose latency drifts with the shared disk.
type sweepLoop struct {
	c       *client
	workers []*client
	sz      sweepSizes
	seed    uint64
	named   []string
	traces  [][][]byte // upload sets, used by iterations in turn
	iter    int
	traced  bool // also fetch per-job start times for the run ledger
	speed   *speedMeter
}

func (l *sweepLoop) run(ctx context.Context, r *report, s *sweepStats, d time.Duration, spans *spanLog) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < d {
		sp := spans.start("cluster", nil)
		l.once(ctx, r, s)
		spans.end(sp)
	}
	return time.Since(t0)
}

// once runs one iteration, timing the calibration kernel inline
// before it and before each resubmission.
func (l *sweepLoop) once(ctx context.Context, r *report, s *sweepStats) {
	l.speed.sample()
	it := l.iter
	l.iter++
	wls := append([]string(nil), l.named...)
	for _, data := range l.traces[it%len(l.traces)] {
		var up server.WorkloadUpload
		t := time.Now()
		_, err := l.c.do(ctx, http.MethodPost, "/v1/workloads", data, "application/octet-stream", &up, http.StatusCreated)
		s.uploads.add(ms(time.Since(t)))
		if err == nil && up.Workload != tracein.WorkloadName(data) {
			err = fmt.Errorf("upload registered %s, want %s", up.Workload, tracein.WorkloadName(data))
		}
		r.op(err)
		if err != nil {
			return
		}
		s.uploaded = append(s.uploaded, up.Workload)
		wls = append(wls, up.Workload)
	}

	req := server.SweepRequest{
		Template: server.JobRequest{Insts: l.sz.insts, Seed: l.seed<<16 ^ uint64(it+1)},
		Axes:     server.SweepAxes{Workloads: wls, Predictors: sweepFamilies, Contexts: sweepContexts},
	}
	points, err := req.Expand(spec.Defaults{Insts: l.sz.insts}, 4096)
	if err != nil {
		r.op(err)
		return
	}
	t := time.Now()
	st, err := l.sweep(ctx, req, sweepPoll)
	makespan := time.Since(t)
	if err == nil && (st.Failed != 0 || st.Done != len(points)) {
		err = fmt.Errorf("sweep %s: done=%d failed=%d of %d points", st.ID, st.Done, st.Failed, len(points))
	}
	r.op(err)
	if err != nil {
		return
	}
	s.makespans.add(makespan.Seconds())

	byHash := make(map[string]server.Point, len(points))
	for _, p := range points {
		byHash[p.Hash] = p
	}
	first := make(map[string]string)
	for _, pt := range st.Points {
		p, ok := byHash[pt.SpecHash]
		if !ok || pt.Result == nil || pt.Finished == nil {
			r.fail(fmt.Errorf("sweep %s: unexpected point %s", st.ID, pt.SpecHash))
			continue
		}
		s.settled.add(ms(pt.Finished.Sub(t)))
		s.pointsDone++
		s.simInsts += pt.Result.SimInstructions
		s.results = append(s.results, checked{sim: p.Sim, label: p.Label, result: *pt.Result})
		first[pt.SpecHash] = resultJSON(*pt.Result)
	}
	l.pointTimes(ctx, r, s, t, byHash)

	// Resubmit a few finished points, each as a one-point sweep: the
	// coordinator answers them from its result cache.
	for k := 0; k < hitResubmits; k++ {
		l.speed.sample()
		p := points[(it*hitResubmits+k)%len(points)]
		sim := p.Sim
		t = time.Now()
		again, err := l.sweep(ctx, server.SweepRequest{Template: server.JobRequest{Spec: &sim}}, hitPoll)
		s.hits.add(ms(time.Since(t)))
		if err == nil && (again.Cached != 1 || len(again.Points) != 1) {
			err = fmt.Errorf("resubmitted point %s: %d of %d points cached", p.Hash, again.Cached, len(again.Points))
		}
		if err == nil && (again.Points[0].Result == nil || resultJSON(*again.Points[0].Result) != first[p.Hash]) {
			err = fmt.Errorf("resubmitted point %s returned a different result", p.Hash)
		}
		r.op(err)
	}
}

// hitResubmits is how many finished points each iteration resubmits.
// sweepPoll is the status polling period while a sweep runs (each poll
// returns every point); a resubmitted point settles at once, so it is
// polled at hitPoll to keep the poll period out of hit_p50_ms.
const (
	hitResubmits = 3
	sweepPoll    = 10 * time.Millisecond
	hitPoll      = 250 * time.Microsecond
)

// sweep submits a sweep and polls its status, every poll, until it is
// done; the status returned carries every point's result.
func (l *sweepLoop) sweep(ctx context.Context, req server.SweepRequest, poll time.Duration) (cluster.SweepStatus, error) {
	var st cluster.SweepStatus
	if _, err := l.c.postJSON(ctx, "/v1/sweeps", req, &st, http.StatusOK, http.StatusAccepted); err != nil {
		return st, err
	}
	for {
		if err := l.c.getJSON(ctx, "/v1/sweeps/"+st.ID, &st); err != nil || st.State == "done" {
			return st, err
		}
		time.Sleep(poll)
	}
}

// pointTimes reads each fresh point's job on the worker that ran it:
// created → finished is the point's latency, sweep submit → created
// its dispatch wait, and (traced runs only) started → finished its run
// time on the worker.
func (l *sweepLoop) pointTimes(ctx context.Context, r *report, s *sweepStats, submit time.Time, points map[string]server.Point) {
	for _, w := range l.workers {
		var list server.JobList
		if err := w.getJSON(ctx, fmt.Sprintf("/v1/jobs?limit=%d", 4*len(points)), &list); err != nil {
			r.op(err)
			return
		}
		for _, j := range list.Jobs {
			if _, ok := points[j.SpecHash]; !ok || j.CacheHit || j.Finished == nil || j.Created.Before(submit) {
				continue
			}
			s.points.add(ms(j.Finished.Sub(j.Created)))
			s.dispatchWaits.add(ms(j.Created.Sub(submit)))
			if l.traced {
				var st server.JobStatus
				if err := w.getJSON(ctx, "/v1/jobs/"+j.ID, &st); err != nil {
					r.op(err)
					return
				}
				if st.Started != nil && st.Finished != nil {
					d := st.Finished.Sub(*st.Started)
					s.runs.add(ms(d))
					s.runTime += d
				}
			}
		}
	}
}

func runSweep(o opts) (*report, error) {
	r := newReport()
	sz := sweepSizesFor(o)
	salt := saltFor(o.seed)
	// The uploads come from the other four profiles; the seed selects
	// their content and every sweep's run seed.
	profiles := []string{"v8", "h264ref", "wrf", "coremark"}
	named := sweepNamed[:sz.named]
	// Two alternating upload sets: every upload converts and registers
	// its trace again, and the coordinator ships each trace to the
	// workers on first use. Reusing content keeps the fleet's resident
	// recordings bounded; the per-iteration run seed keeps every sweep
	// point fresh. Encoding is the client's work, done before set-up.
	traces := make([][][]byte, 2)
	for it := range traces {
		for u := 0; u < sz.uploads; u++ {
			profile := profiles[(it*sz.uploads+u)%len(profiles)]
			data, err := encodeExternal(profile, salt+3000+it*sz.uploads+u, sz.insts)
			if err != nil {
				return nil, err
			}
			traces[it] = append(traces[it], data)
		}
	}

	speed := &speedMeter{}
	speed.sample()
	f, setupS, err := timeSetup(daemonSetupReps, func() (fleet, error) { return startFleet(o.dir, sz.insts) }, fleet.stop)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	ctx := context.Background()
	loop := &sweepLoop{c: newClient(f.cts.URL, ""), sz: sz, seed: o.seed, named: named, traces: traces, traced: o.trace, speed: speed}
	defer loop.c.close()
	for _, w := range f.workers {
		c := newClient(w.ts.URL, "")
		defer c.close()
		loop.workers = append(loop.workers, c)
	}
	s := &sweepStats{}
	defer func() {
		for _, name := range s.uploaded {
			trace.UnregisterExternal(name)
		}
	}()

	// Untimed warm-up: one whole iteration.
	warm := newReport()
	loop.once(ctx, warm, &sweepStats{})
	if warm.failed.Load() != 0 {
		return nil, fmt.Errorf("warm-up sweep failed: %v", warm.failures)
	}

	if o.trace {
		half := o.duration() / 2
		e0 := loop.run(ctx, r, s, half, nil)
		i0 := s.simInsts
		spans := newSpanLog()
		e1 := loop.run(ctx, r, s, half, spans)
		untraced := float64(i0) / e0.Seconds()
		traced := float64(s.simInsts-i0) / e1.Seconds()
		r.set("ledger.tracing_overhead_frac", 1-traced/untraced, "ratio")
		if err := sweepLayers(ctx, r, s, loop, f); err != nil {
			return nil, err
		}
		verify(r, s.results)
		if err := ledgerOverNamed(r, named, sz.insts, s.results, o, spans); err != nil {
			return nil, err
		}
		return r, writeSpans(o, spans)
	}

	heap := startHeapSampler()
	elapsed := loop.run(ctx, r, s, o.duration(), nil)
	r.set("mem_peak_mb", heap.peakMB(), "MiB")
	checkWorkersGenerated(ctx, r, loop)
	verify(r, s.results)

	r.set("setup_s", setupS, "s")
	r.set("sim_mips", float64(s.simInsts)/1e6/elapsed.Seconds(), "MIPS")
	pts := s.settled.values()
	r.set("job_p50_ms", median(pts), "ms")
	r.set("job_p90_ms", quantile(pts, 0.9), "ms")
	r.setSamples("job_p50_ms", len(pts))
	r.setSamples("job_p90_ms", len(pts))
	hits := s.hits.values()
	r.set("hit_p50_ms", median(hits), "ms")
	r.setSamples("hit_p50_ms", len(hits))
	r.set("jobs_per_s", float64(s.pointsDone)/elapsed.Seconds(), "1/s")
	mk := s.makespans.values()
	r.set("sweep_makespan_s", median(mk), "s")
	r.setSamples("sweep_makespan_s", len(mk))
	ups := s.uploads.values()
	r.set("upload_p50_ms", median(ups), "ms")
	r.setSamples("upload_p50_ms", len(ups))
	r.normalize(speed.meanNs())
	return r, nil
}

// checkWorkersGenerated fails the run if any worker generated a stream
// live instead of replaying what the coordinator shipped.
func checkWorkersGenerated(ctx context.Context, r *report, l *sweepLoop) float64 {
	var total float64
	for i, w := range l.workers {
		fams, err := w.scrape(ctx)
		if err != nil {
			r.op(fmt.Errorf("scraping worker %d: %w", i, err))
			continue
		}
		g := sampleSum(fams, "lvpd_trace_artifact_generated_total")
		total += g
		if g != 0 {
			r.op(fmt.Errorf("worker %d generated %g streams live", i, g))
		}
	}
	return total
}

// sweepLayers reports the cluster layer's ledger: point latency and
// dispatch wait from the workers' job records, retries and artifact
// shipping from the coordinator's metrics, and how busy the workers
// were over the traced half's sweeps.
func sweepLayers(ctx context.Context, r *report, s *sweepStats, l *sweepLoop, f fleet) error {
	fams, err := l.c.scrape(ctx)
	if err != nil {
		return fmt.Errorf("scraping coordinator: %w", err)
	}
	r.set("cluster.point_p50_ms", median(s.points.values()), "ms")
	r.set("cluster.dispatch_wait_p50_ms", median(s.dispatchWaits.values()), "ms")
	r.set("cluster.retries", sampleSum(fams, "lvpc_points_retried_total"), "count")
	var mk float64
	for _, v := range s.makespans.values() {
		mk += v
	}
	r.set("cluster.worker_busy_frac", s.runTime.Seconds()/(float64(len(f.workers))*mk), "ratio")
	r.set("cluster.point_run_p50_ms", median(s.runs.values()), "ms")
	r.set("trace.artifacts_shipped", sampleSum(fams, "lvpc_trace_artifacts_shipped_total"), "count")
	r.set("trace.worker_generated", checkWorkersGenerated(ctx, r, l), "count")
	return nil
}
