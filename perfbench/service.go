package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// referenceResult simulates a normalized spec the single-node way:
// experiment contexts with live stream generation (no artifact store,
// no daemon), assembled into the RunResult the daemon returns. shared
// is a context at the spec's instruction budget; it caches baselines,
// which do not depend on the run seed, across calls.
func referenceResult(shared *expt.Context, sim spec.Sim, label string) (server.RunResult, error) {
	seeded, err := expt.NewContextErr(expt.Options{Insts: sim.Workload.Insts, Seed: sim.Run.Seed, Parallel: 1})
	if err != nil {
		return server.RunResult{}, err
	}
	bg := context.Background()
	none := sim.Predictor.Family == spec.FamilyNone
	var res server.RunResult
	if sim.Machine.NumContexts() > 1 {
		base := shared.SMTBaselineCtx(bg, sim)
		if none {
			res = server.NewSMTRunResult(base, base, sim.ContextStreams(), nil)
		} else {
			eng, err := spec.NewEngine(sim.Predictor, sim.Workload.Insts, seeded.EngineSeedLabel(sim.WorkloadLabel()))
			if err != nil {
				return res, err
			}
			run := shared.RunSMTCtx(bg, sim, label, eng)
			res = server.NewSMTRunResult(run, base, sim.ContextStreams(), server.CompositeFromEngine(eng))
		}
	} else {
		w, ok := trace.ByName(sim.Workload.Name)
		if !ok {
			return res, fmt.Errorf("unknown workload %q", sim.Workload.Name)
		}
		base := shared.BaselineMachineCtx(bg, w, sim.Machine)
		if none {
			res = server.NewRunResult(base, base, nil)
		} else {
			eng, err := spec.NewEngine(sim.Predictor, sim.Workload.Insts, seeded.EngineSeed(w))
			if err != nil {
				return res, err
			}
			run := shared.RunEngineCfgCtx(bg, w, label, eng, sim.Machine.Config())
			res = server.NewRunResult(run, base, server.CompositeFromEngine(eng))
		}
	}
	if res.StorageKB == 0 {
		res.StorageKB = spec.StorageKB(sim.Predictor)
	}
	return res, nil
}

// resultKey renders the simulated content of a result: everything but
// the echoed predictor label and the producing job's host-time fields.
func resultKey(r server.RunResult) string {
	r.Predictor, r.SimInstructions, r.SimMIPS = "", 0, 0
	b, _ := json.Marshal(r)
	return string(b)
}

// resultJSON renders a whole result, host-time fields included: a
// repeated request must return the producing job's result byte for
// byte.
func resultJSON(r server.RunResult) string {
	b, _ := json.Marshal(r)
	return string(b)
}

// checked is one daemon result awaiting its reference comparison.
type checked struct {
	sim    spec.Sim
	label  string
	result server.RunResult
}

// verify compares every collected result against its single-node
// reference, counting each mismatch as a failed operation. References
// are computed once per distinct spec, on one goroutine per CPU.
func verify(r *report, results []checked) {
	uniq := make(map[string]checked)
	for _, c := range results {
		k, _ := json.Marshal(c.sim)
		if _, ok := uniq[string(k)]; !ok {
			uniq[string(k)] = c
		}
	}
	var (
		mu     sync.Mutex
		refs   = make(map[string]string, len(uniq))
		shared = make(map[uint64]*expt.Context)
		work   = make(chan string)
		wg     sync.WaitGroup
	)
	sharedFor := func(insts uint64) *expt.Context {
		mu.Lock()
		defer mu.Unlock()
		if shared[insts] == nil {
			shared[insts] = expt.NewContext(expt.Options{Insts: insts, Parallel: 1})
		}
		return shared[insts]
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				c := uniq[k]
				ref, err := referenceResult(sharedFor(c.sim.Workload.Insts), c.sim, c.label)
				if err != nil {
					r.fail(fmt.Errorf("reference for %s: %w", k, err))
					continue
				}
				mu.Lock()
				refs[k] = resultKey(ref)
				mu.Unlock()
			}
		}()
	}
	for k := range uniq {
		work <- k
	}
	close(work)
	wg.Wait()
	for _, c := range results {
		k, _ := json.Marshal(c.sim)
		if want, ok := refs[string(k)]; ok && resultKey(c.result) != want {
			r.fail(fmt.Errorf("result mismatch for %s:\n got  %s\n want %s", k, resultKey(c.result), want))
		}
	}
}

// serviceWorkloads are the named workloads service jobs draw from.
var serviceWorkloads = simWorkloads

// serviceFamilies are the predictors fresh service jobs draw from.
var serviceFamilies = []spec.Family{spec.FamilyNone, spec.FamilyLVP, spec.FamilyComposite, spec.FamilyBest, spec.FamilyEVES}

type serviceSizes struct {
	insts       uint64 // per job
	uploadInsts uint64 // per uploaded trace
	uploads     int    // distinct upload bodies, reused round-robin
	sweepPoints int
}

func serviceSizesFor(o opts) serviceSizes {
	if o.small {
		return serviceSizes{insts: 2_000, uploadInsts: 1_000, uploads: 2, sweepPoints: 2}
	}
	return serviceSizes{insts: 10_000, uploadInsts: 5_000, uploads: 8, sweepPoints: 4}
}

// serviceTenants are the two tenants of the service workload, one per
// client; unequal weights exercise the fair-queueing scheduler.
var serviceTenants = []tenant.Tenant{
	{Name: "alpha", APIKey: "alpha-key", Weight: 1},
	{Name: "beta", APIKey: "beta-key", Weight: 2},
}

// daemon is one in-process lvpd.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
}

func (d daemon) stop() {
	if d.ts != nil {
		d.ts.Close()
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = d.srv.Shutdown(ctx) // best effort: the run's data dir is removed anyway
	}
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// startDaemon starts lvpd in-process over a fresh data directory (WAL
// and warehouse) with the two-tenant file.
func startDaemon(dir string, insts uint64) (daemon, error) {
	data, err := os.MkdirTemp(dir, "lvpd-")
	if err != nil {
		return daemon{}, err
	}
	tf := filepath.Join(data, "tenants.json")
	raw, _ := json.Marshal(map[string]any{"tenants": serviceTenants})
	if err := os.WriteFile(tf, raw, 0o644); err != nil {
		return daemon{}, err
	}
	reg, err := tenant.Load(tf)
	if err != nil {
		return daemon{}, err
	}
	srv, err := server.New(server.Config{
		DataDir:      filepath.Join(data, "data"),
		Tenants:      reg,
		DefaultInsts: insts,
		Logger:       quietLog,
	})
	if err != nil {
		return daemon{}, err
	}
	srv.Start()
	return daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// submit posts a job and waits for its terminal status, following the
// job's event stream rather than polling. It returns the final status
// and the accept latency (POST until the 202 arrives).
func (c *client) submit(ctx context.Context, req server.JobRequest) (server.JobStatus, time.Duration, error) {
	var st server.JobStatus
	t := time.Now()
	if _, err := c.postJSON(ctx, "/v1/jobs", req, &st, http.StatusOK, http.StatusAccepted); err != nil {
		return st, 0, err
	}
	accept := time.Since(t)
	st, err := c.await(ctx, st)
	return st, accept, err
}

// await returns st once it is terminal, reading the job's SSE stream
// until the terminal event when it is not yet.
func (c *client) await(ctx context.Context, st server.JobStatus) (server.JobStatus, error) {
	if terminal(st.State) {
		return st, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		return st, err
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events for job %s: status %d", st.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && terminal(event) {
			var fin server.JobStatus
			if err := json.Unmarshal([]byte(v), &fin); err != nil {
				return st, fmt.Errorf("events for job %s: %w", st.ID, err)
			}
			return fin, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("events for job %s ended before a terminal state", st.ID)
}

func terminal(state string) bool {
	return state == server.StateDone || state == server.StateFailed || state == server.StateCanceled
}

// doneResult turns a terminal status into its result, or an error for
// anything but a finished job with a result.
func doneResult(st server.JobStatus) (server.RunResult, error) {
	if st.State != server.StateDone || st.Result == nil {
		return server.RunResult{}, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return *st.Result, nil
}

// serviceStats gathers the service loop's samples across clients.
type serviceStats struct {
	jobs, hits, accepts, queueWaits, runs, queries, sweeps, uploads latencies

	mu       sync.Mutex
	done     int // completed jobs: fresh, resubmitted and sweep points
	hitCount int // submissions answered without simulating
	submits  int
	simInsts uint64
	results  []checked
}

func (s *serviceStats) finish(st server.JobStatus, res server.RunResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	s.submits++
	if st.CacheHit {
		s.hitCount++
	} else {
		s.simInsts += res.SimInstructions
	}
}

// serviceClient is one closed-loop client: it waits for each
// operation's result before drawing the next from its seeded mix.
type serviceClient struct {
	c       *client
	id      int
	rng     *rand.Rand
	seq     uint64
	seed    uint64
	sz      serviceSizes
	uploads [][]byte
	past    []pastJob // finished fresh jobs, for resubmission
}

// pastJob is a finished fresh job: its request and its result.
type pastJob struct {
	req    server.JobRequest
	result server.RunResult
}

// freshSpec draws a spec no earlier request used: its run seed is
// unique to this client and sequence number.
func (sc *serviceClient) freshSpec() spec.Sim {
	sc.seq++
	return spec.Sim{
		Predictor: spec.PredictorSpec{Family: serviceFamilies[sc.rng.Intn(len(serviceFamilies))]},
		Workload:  spec.WorkloadSpec{Name: serviceWorkloads[sc.rng.Intn(len(serviceWorkloads))], Insts: sc.sz.insts},
		Run:       spec.RunSpec{Seed: sc.seed<<24 ^ uint64(sc.id)<<20 ^ sc.seq},
	}
}

// step runs one operation drawn from the mix: 5% trace uploads, 5%
// small sweeps, 5% warehouse queries, 25% resubmissions of an earlier
// spec, the rest fresh jobs.
func (sc *serviceClient) step(ctx context.Context, r *report, s *serviceStats, spans *spanLog) {
	u := sc.rng.Float64()
	switch {
	case u < 0.05:
		data := sc.uploads[sc.rng.Intn(len(sc.uploads))]
		var up server.WorkloadUpload
		sp := spans.start("server", nil)
		t := time.Now()
		_, err := sc.c.do(ctx, http.MethodPost, "/v1/workloads", data, "application/octet-stream", &up, http.StatusCreated)
		s.uploads.add(ms(time.Since(t)))
		spans.end(sp)
		if err == nil && (up.Workload != tracein.WorkloadName(data) || up.Insts != sc.sz.uploadInsts) {
			err = fmt.Errorf("upload registered %s with %d insts, want %s with %d",
				up.Workload, up.Insts, tracein.WorkloadName(data), sc.sz.uploadInsts)
		}
		r.op(err)
	case u < 0.10:
		sp := spans.start("server", nil)
		sc.sweep(ctx, r, s)
		spans.end(sp)
	case u < 0.15:
		var list server.RunList
		sp := spans.start("store", nil)
		t := time.Now()
		err := sc.c.getJSON(ctx, "/v1/runs?limit=20&tenant="+serviceTenants[sc.id].Name, &list)
		s.queries.add(ms(time.Since(t)))
		spans.end(sp)
		r.op(err)
	case u < 0.40 && len(sc.past) > 0:
		i := sc.rng.Intn(len(sc.past))
		sp := spans.start("server", nil)
		t := time.Now()
		st, _, err := sc.c.submit(ctx, sc.past[i].req)
		s.hits.add(ms(time.Since(t)))
		spans.end(sp)
		var res server.RunResult
		if err == nil {
			res, err = doneResult(st)
		}
		if err == nil {
			s.finish(st, res)
			if !st.CacheHit {
				err = fmt.Errorf("resubmitted spec %s simulated again", st.SpecHash)
			} else if resultJSON(res) != resultJSON(sc.past[i].result) {
				err = fmt.Errorf("resubmitted spec %s returned a different result", st.SpecHash)
			}
		}
		r.op(err)
	default:
		sim := sc.freshSpec()
		req := server.JobRequest{Spec: &sim}
		sp := spans.start("server", nil)
		t := time.Now()
		st, accept, err := sc.c.submit(ctx, req)
		lat := time.Since(t)
		spans.end(sp)
		var res server.RunResult
		if err == nil {
			res, err = doneResult(st)
		}
		if err == nil && st.CacheHit {
			err = fmt.Errorf("fresh spec %s answered from cache", st.SpecHash)
		}
		r.op(err)
		if err != nil {
			return
		}
		s.jobs.add(ms(lat))
		s.accepts.add(ms(accept))
		if st.Started != nil && st.Finished != nil {
			s.queueWaits.add(ms(st.Started.Sub(st.Created)))
			s.runs.add(ms(st.Finished.Sub(*st.Started)))
		}
		s.finish(st, res)
		sc.past = append(sc.past, pastJob{req: req, result: res})
		canon, _, _ := sim.Canonical(spec.Defaults{})
		s.mu.Lock()
		s.results = append(s.results, checked{sim: canon, label: string(canon.Predictor.Family), result: res})
		s.mu.Unlock()
	}
}

// sweep posts a small single-node sweep over fresh seeds and waits for
// every point.
func (sc *serviceClient) sweep(ctx context.Context, r *report, s *serviceStats) {
	tmpl := sc.freshSpec()
	seeds := []uint64{tmpl.Run.Seed}
	for len(seeds) < sc.sz.sweepPoints {
		seeds = append(seeds, sc.freshSpec().Run.Seed)
	}
	req := server.SweepRequest{
		Template: server.JobRequest{Workload: tmpl.Workload.Name, Predictor: string(tmpl.Predictor.Family), Insts: sc.sz.insts},
		Axes:     server.SweepAxes{Seeds: seeds},
	}
	var resp server.SweepResponse
	t := time.Now()
	_, err := sc.c.postJSON(ctx, "/v1/sweeps", req, &resp, http.StatusOK, http.StatusAccepted)
	if err == nil && len(resp.Jobs) != len(seeds) {
		err = fmt.Errorf("sweep expanded to %d jobs, want %d", len(resp.Jobs), len(seeds))
	}
	if err != nil {
		r.op(err)
		return
	}
	fins := make([]server.JobStatus, len(resp.Jobs))
	for i, st := range resp.Jobs {
		if fins[i], err = sc.c.await(ctx, st); err != nil {
			break
		}
	}
	s.sweeps.add(time.Since(t).Seconds())
	for i, st := range fins {
		if err != nil {
			break
		}
		var res server.RunResult
		if res, err = doneResult(st); err != nil {
			break
		}
		s.finish(st, res)
		sim := tmpl
		sim.Run.Seed = seeds[i]
		canon, _, _ := sim.Canonical(spec.Defaults{})
		s.mu.Lock()
		s.results = append(s.results, checked{sim: canon, label: req.Template.Predictor, result: res})
		s.mu.Unlock()
	}
	r.op(err)
}

// thinkTime is each client's pause between operations. It keeps the
// two CPUs below saturation, so latencies measure the service rather
// than the run queue; saturated, the daemon's throughput swung with
// the shared host's speed several times more than the host did.
const thinkTime = 2 * time.Millisecond

// calibEvery is how many operations a client runs per calibration
// sample.
const calibEvery = 4

// runClients runs one closed-loop client per tenant until the deadline
// and returns the elapsed time. Every calibEvery operations each
// client times the calibration kernel inline.
func runClients(ctx context.Context, r *report, s *serviceStats, clients []*serviceClient, d time.Duration, spans *spanLog, speed *speedMeter) time.Duration {
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for _, sc := range clients {
		wg.Add(1)
		go func(sc *serviceClient) {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				if n%calibEvery == 0 {
					speed.sample()
				}
				sc.step(ctx, r, s, spans)
				time.Sleep(thinkTime)
			}
		}(sc)
	}
	wg.Wait()
	return time.Since(t0)
}

func runService(o opts) (*report, error) {
	r := newReport()
	sz := serviceSizesFor(o)
	salt := saltFor(o.seed)
	var uploads [][]byte
	for i := 0; i < sz.uploads; i++ {
		data, err := encodeExternal(serviceWorkloads[i%len(serviceWorkloads)], salt+2000+i, sz.uploadInsts)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, data)
	}
	defer func() {
		for _, data := range uploads {
			trace.UnregisterExternal(tracein.WorkloadName(data))
		}
	}()

	speed := &speedMeter{}
	speed.sample()
	d, setupS, err := timeSetup(daemonSetupReps, func() (daemon, error) { return startDaemon(o.dir, sz.insts) }, daemon.stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	ctx := context.Background()
	var clients []*serviceClient
	for i, tn := range serviceTenants {
		c := newClient(d.ts.URL, tn.APIKey)
		defer c.close()
		clients = append(clients, &serviceClient{c: c, id: i, sz: sz, uploads: uploads, seed: o.seed,
			rng: rand.New(rand.NewSource(int64(o.seed)*7919 + int64(i)))})
	}
	// Untimed warm-up: one fresh job per client.
	for _, sc := range clients {
		sim := sc.freshSpec()
		st, _, err := sc.c.submit(ctx, server.JobRequest{Spec: &sim})
		if err == nil {
			_, err = doneResult(st)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}

	s := &serviceStats{}
	if o.trace {
		half := o.duration() / 2
		e0 := runClients(ctx, r, s, clients, half, nil, speed)
		i0 := s.simInsts
		spans := newSpanLog()
		stopScrape := scrapeTenantWait(ctx, clients[0].c, s)
		e1 := runClients(ctx, r, s, clients, half, spans, speed)
		tenantWaits := stopScrape()
		untraced := float64(i0) / e0.Seconds()
		traced := float64(s.simInsts-i0) / e1.Seconds()
		r.set("ledger.tracing_overhead_frac", 1-traced/untraced, "ratio")
		if err := serviceLayers(ctx, r, s, clients[0].c, tenantWaits); err != nil {
			return nil, err
		}
		verify(r, s.results)
		if err := ledgerOverNamed(r, serviceWorkloads, sz.insts, s.results, o, spans); err != nil {
			return nil, err
		}
		return r, writeSpans(o, spans)
	}

	heap := startHeapSampler()
	elapsed := runClients(ctx, r, s, clients, o.duration(), nil, speed)
	r.set("mem_peak_mb", heap.peakMB(), "MiB")
	verify(r, s.results)

	r.set("setup_s", setupS, "s")
	r.set("sim_mips", float64(s.simInsts)/1e6/elapsed.Seconds(), "MIPS")
	jobs := s.jobs.values()
	r.set("job_p50_ms", median(jobs), "ms")
	r.set("job_p90_ms", quantile(jobs, 0.9), "ms")
	r.setSamples("job_p50_ms", len(jobs))
	r.setSamples("job_p90_ms", len(jobs))
	hits := s.hits.values()
	r.set("hit_p50_ms", median(hits), "ms")
	r.setSamples("hit_p50_ms", len(hits))
	r.set("jobs_per_s", float64(s.done)/elapsed.Seconds(), "1/s")
	sweeps := s.sweeps.values()
	r.set("sweep_makespan_s", median(sweeps), "s")
	r.setSamples("sweep_makespan_s", len(sweeps))
	ups := s.uploads.values()
	r.set("upload_p50_ms", median(ups), "ms")
	r.setSamples("upload_p50_ms", len(ups))
	r.normalize(speed.meanNs())
	return r, nil
}

// scrapeTenantWait samples the daemon's per-tenant head-of-line wait
// gauge every 20ms until the returned stop function is called, which
// returns the samples in milliseconds.
func scrapeTenantWait(ctx context.Context, c *client, s *serviceStats) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var xs []float64
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- xs
				return
			case <-t.C:
				fams, err := c.scrape(ctx)
				if err != nil {
					continue
				}
				for _, tn := range serviceTenants {
					xs = append(xs, 1000*sampleSum(fams, "lvpd_tenant_queue_wait_seconds", "tenant", tn.Name))
				}
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// serviceLayers reports the serving layers' ledger from the client
// samples and one scrape of the daemon's metrics.
func serviceLayers(ctx context.Context, r *report, s *serviceStats, c *client, tenantWaits []float64) error {
	fams, err := c.scrape(ctx)
	if err != nil {
		return fmt.Errorf("scraping lvpd: %w", err)
	}
	r.set("server.accept_p50_ms", median(s.accepts.values()), "ms")
	r.set("server.queue_wait_p50_ms", median(s.queueWaits.values()), "ms")
	r.set("server.run_p50_ms", median(s.runs.values()), "ms")
	s.mu.Lock()
	r.set("server.cache_hit_ratio", float64(s.hitCount)/float64(s.submits), "ratio")
	s.mu.Unlock()
	r.set("store.wal_fsync_p50_ms", 1000*histQuantile(fams, "lvpd_wal_fsync_seconds", 0.5), "ms")
	r.set("store.runs_query_p50_ms", median(s.queries.values()), "ms")
	r.set("tenant.queue_wait_p50_ms", median(tenantWaits), "ms")
	return nil
}

// ledgerOverNamed runs the simulation ledger over the named workloads
// a daemon workload simulates, recorded at its job size, with the
// workload's checked specs as the spec layer's request mix.
func ledgerOverNamed(r *report, names []string, insts uint64, results []checked, o opts, spans *spanLog) error {
	store, err := trace.NewArtifactStore("", insts*uint64(len(names)))
	if err != nil {
		return err
	}
	var streams []ledgerStream
	for _, n := range names {
		rep, err := store.Cursor(n, insts)
		if err != nil {
			return err
		}
		streams = append(streams, ledgerStream{name: n, insts: insts, rep: rep})
	}
	var specs []spec.Sim
	for _, c := range results {
		specs = append(specs, c.sim)
	}
	if len(specs) == 0 {
		return fmt.Errorf("ledger: no specs in the request mix")
	}
	if err := simLedger(r, streams, specs, o.seed, ledgerMinInsts(o), spans); err != nil {
		return err
	}
	r.set("trace.generated", float64(store.Stats().Generated), "count")
	return nil
}
