package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cpu"
	"repro/internal/expt"
	otrace "repro/internal/obs/trace"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// simWorkloads holds one workload per trace profile: int, pointer,
// js, media, fp and embedded. Together they span the behaviours the
// predictors and the memory hierarchy respond to.
var simWorkloads = []string{"gcc2k", "mcf", "v8", "h264ref", "wrf", "coremark"}

// simFamilies are the predictors every sim stream runs under: none
// (pipeline, mem and branch only), the paper's best composite, EVES.
var simFamilies = []spec.Family{spec.FamilyNone, spec.FamilyBest, spec.FamilyEVES}

// Set-up repetitions per run; setup_s is their median. Starting a
// daemon takes about a millisecond, so it is repeated more often.
const (
	setupReps       = 5
	daemonSetupReps = 15
)

// simSizes are the sim workload's input sizes.
type simSizes struct {
	insts       uint64 // per simulation
	streams     int    // how many of simWorkloads
	importInsts uint64 // per imported external trace
	imports     int    // distinct imported traces, reused round-robin
	hitBatch    int    // cursor requests timed together per hit sample
}

func simSizesFor(o opts) simSizes {
	if o.small {
		return simSizes{insts: 20_000, streams: 2, importInsts: 2_000, imports: 2, hitBatch: 8}
	}
	return simSizes{insts: 1_000_000, streams: len(simWorkloads), importInsts: 20_000, imports: 8, hitBatch: 64}
}

// saltedWorkload returns the seed's salted stream of a named workload:
// an independently seeded instance of the same recipe.
func saltedWorkload(name string, salt int) trace.Workload {
	stream := trace.StreamName(name, salt)
	w, _ := trace.ByName(name)
	return trace.Workload{Name: stream, Profile: w.Profile, Build: func(n uint64) trace.Generator {
		g, _ := trace.BuildStream(stream, n)
		return g
	}}
}

// saltFor maps a seed to a positive stream salt.
func saltFor(seed uint64) int { return int(seed%1_000_000) + 1 }

// encodeExternal encodes a salted synthetic stream as an LVPX trace,
// the container users upload.
func encodeExternal(name string, salt int, insts uint64) ([]byte, error) {
	g, ok := trace.BuildStream(trace.StreamName(name, salt), insts)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var buf bytes.Buffer
	if _, err := tracein.Encode(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// simCase is one (stream, predictor) simulation with its reference.
type simCase struct {
	w     trace.Workload
	p     spec.PredictorSpec
	label string
	ref   stats.Run
}

// simEnv is what the sim set-up builds: the recorded streams and the
// experiment context that replays them.
type simEnv struct {
	store *trace.ArtifactStore
	ctx   *expt.Context
}

// simSetup records every stream into a fresh in-memory artifact store,
// builds the experiment context over it and warms the pipeline pool.
// The store's budget holds every stream plus every imported trace, so
// timed runs never regenerate.
func simSetup(ws []trace.Workload, sz simSizes, seed uint64) (simEnv, error) {
	budget := sz.insts*uint64(len(ws)) + sz.importInsts*uint64(sz.imports)
	store, err := trace.NewArtifactStore("", budget)
	if err != nil {
		return simEnv{}, err
	}
	for _, w := range ws {
		if _, err := store.Cursor(w.Name, sz.insts); err != nil {
			return simEnv{}, fmt.Errorf("recording %s: %w", w.Name, err)
		}
	}
	ctx, err := expt.NewContextErr(expt.Options{Insts: sz.insts, Seed: seed, Traces: store, Parallel: 1})
	if err != nil {
		return simEnv{}, err
	}
	for _, f := range simFamilies {
		eng, err := spec.NewEngine(predictor(f), sz.insts, seed)
		if err != nil {
			return simEnv{}, err
		}
		cpu.Release(cpu.Acquire(cpu.DefaultConfig(), eng))
	}
	return simEnv{store: store, ctx: ctx}, nil
}

// simReference runs one case the independent way: a fresh generator
// and a fresh pipeline from cpu.New, bypassing the artifact store, the
// experiment context and the pipeline pool.
func simReference(c simCase, insts, engSeed uint64) (stats.Run, error) {
	gen, ok := trace.BuildStream(c.w.Name, insts)
	if !ok {
		return stats.Run{}, fmt.Errorf("unknown stream %s", c.w.Name)
	}
	eng, err := spec.NewEngine(c.p, insts, engSeed)
	if err != nil {
		return stats.Run{}, err
	}
	return cpu.New(cpu.DefaultConfig(), eng).Run(gen, c.w.Name, c.label), nil
}

// simLoop is the sim workload's closed loop: a single caller runs the
// case grid in whole passes, in a seeded order per pass, until the
// deadline has passed. Before each simulation it imports one
// external trace in-process, as lvpsim -trace does; after it, it asks
// the store for the stream again (the resident read path).
type simLoop struct {
	env     simEnv
	cases   []simCase
	imports [][]byte
	sz      simSizes
	rng     *rand.Rand

	jobs, hits, uploads latencies
	passes              []float64
	insts               uint64
	k                   int // imports done, selecting the next import
	imported            map[string]bool
	speed               *speedMeter
}

func (l *simLoop) run(r *report, d time.Duration, spans *spanLog) (elapsed time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
		ps := spans.start("expt", nil)
		pt := time.Now()
		for _, i := range l.rng.Perm(len(l.cases)) {
			l.step(r, l.cases[i], ps, spans)
		}
		spans.end(ps)
		l.passes = append(l.passes, time.Since(pt).Seconds())
	}
	return time.Since(t0)
}

// step samples the host's speed, imports one trace, runs one case and
// re-reads its stream.
func (l *simLoop) step(r *report, c simCase, ps *otrace.Span, spans *spanLog) {
	l.speed.sample()
	data := l.imports[l.k%len(l.imports)]
	l.k++
	t := time.Now()
	us := spans.start("tracein", ps)
	name, rep, _, err := tracein.ConvertBytes(data, trace.DefaultArtifactBudget)
	if err == nil {
		_, err = trace.RegisterExternal(name, rep, true)
	}
	if err == nil {
		l.imported[name] = true
		_, err = l.env.store.PutRecording(name, rep)
	}
	spans.end(us)
	l.uploads.add(ms(time.Since(t)))
	r.op(err)

	var eng cpu.Engine
	if c.p.Family != spec.FamilyNone {
		if eng, err = spec.NewEngine(c.p, l.sz.insts, l.env.ctx.EngineSeed(c.w)); err != nil {
			r.op(err)
			return
		}
		if spans != nil {
			eng = &timedEngine{inner: eng}
		}
	}
	t = time.Now()
	cs := spans.start("cpu", ps)
	run := l.env.ctx.RunEngineCtx(context.Background(), c.w, c.label, eng)
	spans.end(cs)
	l.jobs.add(ms(time.Since(t)))
	l.insts += run.Instructions
	if run != c.ref {
		err = fmt.Errorf("sim %s/%s: got %v, reference %v", c.w.Name, c.label, run, c.ref)
	}
	r.op(err)

	t = time.Now()
	for j := 0; j < l.sz.hitBatch; j++ {
		if _, err := l.env.store.Cursor(c.w.Name, l.sz.insts); err != nil {
			r.op(err)
		}
	}
	l.hits.add(ms(time.Since(t)) / float64(l.sz.hitBatch))
}

func runSim(o opts) (*report, error) {
	r := newReport()
	sz := simSizesFor(o)
	salt := saltFor(o.seed)
	var ws []trace.Workload
	for _, name := range simWorkloads[:sz.streams] {
		ws = append(ws, saltedWorkload(name, salt))
	}
	var imports [][]byte
	for i := 0; i < sz.imports; i++ {
		data, err := encodeExternal(simWorkloads[i%len(simWorkloads)], salt+1000+i, sz.importInsts)
		if err != nil {
			return nil, err
		}
		imports = append(imports, data)
	}

	speed := &speedMeter{}
	speed.sample()
	env, setupS, err := timeSetup(setupReps, func() (simEnv, error) { return simSetup(ws, sz, o.seed) }, func(simEnv) {})
	if err != nil {
		return nil, err
	}

	// The reference pass doubles as the untimed warm-up.
	var cases []simCase
	var specs []spec.Sim
	for _, w := range ws {
		for _, f := range simFamilies {
			c := simCase{w: w, p: predictor(f), label: string(f)}
			ref, err := simReference(c, sz.insts, env.ctx.EngineSeed(w))
			if err != nil {
				return nil, err
			}
			c.ref = ref
			cases = append(cases, c)
			base, _ := trace.SplitStreamName(w.Name)
			specs = append(specs, spec.Sim{Predictor: spec.PredictorSpec{Family: f},
				Workload: spec.WorkloadSpec{Name: base, Insts: sz.insts}, Run: spec.RunSpec{Seed: o.seed}})
		}
	}
	loop := &simLoop{env: env, cases: cases, imports: imports, sz: sz, speed: speed,
		rng: rand.New(rand.NewSource(int64(o.seed))), imported: make(map[string]bool)}
	defer func() {
		for name := range loop.imported {
			trace.UnregisterExternal(name)
		}
	}()

	if o.trace {
		// Untraced then traced halves of the same loop give the tracing
		// overhead; the ledger then prices each layer standalone.
		half := o.duration() / 2
		e0 := loop.run(r, half, nil)
		i0 := loop.insts
		spans := newSpanLog()
		e1 := loop.run(r, half, spans)
		untraced := float64(i0) / e0.Seconds()
		traced := float64(loop.insts-i0) / e1.Seconds()
		r.set("ledger.tracing_overhead_frac", 1-traced/untraced, "ratio")
		var streams []ledgerStream
		for _, w := range ws {
			rep, err := env.store.Cursor(w.Name, sz.insts)
			if err != nil {
				return nil, err
			}
			streams = append(streams, ledgerStream{name: w.Name, insts: sz.insts, rep: rep})
		}
		gs := spans.start("trace", nil)
		err := simLedger(r, streams, specs, o.seed, ledgerMinInsts(o), spans)
		spans.end(gs)
		if err != nil {
			return nil, err
		}
		r.set("trace.generated", float64(env.store.Stats().Generated), "count")
		checkGenerated(r, env.store, len(ws))
		return r, writeSpans(o, spans)
	}

	heap := startHeapSampler()
	elapsed := loop.run(r, o.duration(), nil)
	r.set("mem_peak_mb", heap.peakMB(), "MiB")
	checkGenerated(r, env.store, len(ws))

	r.set("setup_s", setupS, "s")
	r.set("sim_mips", float64(loop.insts)/1e6/elapsed.Seconds(), "MIPS")
	jobs := loop.jobs.values()
	r.set("job_p50_ms", median(jobs), "ms")
	r.set("job_p90_ms", quantile(jobs, 0.9), "ms")
	r.setSamples("job_p50_ms", len(jobs))
	r.setSamples("job_p90_ms", len(jobs))
	r.set("jobs_per_s", float64(len(jobs))/elapsed.Seconds(), "1/s")
	hits := loop.hits.values()
	r.set("hit_p50_ms", median(hits), "ms")
	r.setSamples("hit_p50_ms", len(hits))
	r.set("sweep_makespan_s", median(loop.passes), "s")
	r.setSamples("sweep_makespan_s", len(loop.passes))
	ups := loop.uploads.values()
	r.set("upload_p50_ms", median(ups), "ms")
	r.setSamples("upload_p50_ms", len(ups))
	r.normalize(speed.meanNs())
	return r, nil
}

// ledgerMinInsts is the least number of instructions each layer's
// clock covers in a ledger.
func ledgerMinInsts(o opts) uint64 {
	if o.small {
		return 50_000
	}
	return 2_000_000
}

// checkGenerated fails the run unless the store generated each stream
// exactly once: timed runs must replay, never regenerate.
func checkGenerated(r *report, store *trace.ArtifactStore, want int) {
	if g := store.Stats().Generated; g != uint64(want) {
		r.op(fmt.Errorf("artifact store generated %d streams, want %d", g, want))
	}
}

// spanPath is where a traced run writes its spans: next to its
// scratch directory, which is removed when the run ends.
func spanPath(o opts) string { return o.dir + ".trace.json" }

// writeSpans writes the traced run's spans.
func writeSpans(o opts, spans *spanLog) error {
	if err := spans.write(spanPath(o)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
