package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	otrace "repro/internal/obs/trace"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// timedEngine is a cpu.Engine decorator that counts every call and
// clocks the time spent inside the wrapped engine. It forwards every
// argument and result unchanged, so a wrapped run is bit-identical to
// an unwrapped one; the clock reads are its only cost.
type timedEngine struct {
	inner  cpu.Engine
	probes uint64
	trains uint64
	busy   time.Duration
}

func (e *timedEngine) Probe(p core.Probe) (uint64, core.Prediction, bool) {
	t := time.Now()
	rec, pred, used := e.inner.Probe(p)
	e.busy += time.Since(t)
	e.probes++
	return rec, pred, used
}

func (e *timedEngine) Train(o core.Outcome, rec uint64, resolve core.AddrResolver) {
	t := time.Now()
	e.inner.Train(o, rec, resolve)
	e.busy += time.Since(t)
	e.trains++
}

func (e *timedEngine) Instret(n uint64) {
	t := time.Now()
	e.inner.Instret(n)
	e.busy += time.Since(t)
}

// predictor returns the normalized spec of a predictor family.
func predictor(f spec.Family) spec.PredictorSpec {
	p := spec.PredictorSpec{Family: f}
	p.Normalize()
	return p
}

// The standalone layer drivers below each walk one recorded stream in
// program order and call one layer's public functions the way the
// pipeline does, without the pipeline around them. Each returns the
// number of instructions it visited.

// driveReplay walks the stream only: the trace layer's replay cost,
// which every other driver also pays and subtracts.
func driveReplay(rep *trace.Replay) (insts uint64) {
	cur := rep.Cursor()
	var in trace.Inst
	for cur.Next(&in) {
		insts++
	}
	return insts
}

// driveMem presents every fetch and every data access to a Table III
// memory hierarchy with empty caches.
func driveMem(rep *trace.Replay) (insts, accesses uint64, l1dHit float64) {
	h := mem.NewHierarchy(cpu.DefaultConfig().Hierarchy)
	cur := rep.Cursor()
	var in trace.Inst
	for cur.Next(&in) {
		insts++
		h.InstAccess(in.PC)
		accesses++
		if in.Op == trace.OpLoad || in.Op == trace.OpStore {
			h.DataAccess(in.PC, in.Addr)
			accesses++
		}
	}
	return insts, accesses, h.L1D.Stats().HitRate()
}

// driveBranch runs the front-end predictors (TAGE, ITTAGE, RAS) over
// every control-flow instruction, advancing the histories with the
// actual outcome as the pipeline's predictBranch does.
func driveBranch(rep *trace.Replay) (insts, branches, mispredicts uint64) {
	cfg := cpu.DefaultConfig()
	tage := branch.NewTAGE(cfg.TAGE)
	itt := branch.NewITTAGE(cfg.ITTAGE)
	ras := branch.NewRAS(cfg.RASSize)
	var hist branch.History
	cur := rep.Cursor()
	var in trace.Inst
	for cur.Next(&in) {
		insts++
		if !in.IsBranch() {
			continue
		}
		branches++
		miss := false
		switch in.Op {
		case trace.OpBranch:
			miss = tage.Predict(in.PC, hist.Global) != in.Taken
			tage.Update(in.PC, hist.Global, in.Taken)
			hist.Update(in.PC, in.Taken)
			if miss {
				mispredicts++
			}
			continue
		case trace.OpCall:
			ras.Push(in.PC + 4)
		case trace.OpRet:
			miss = ras.Pop() != in.Target
		case trace.OpIndirect:
			miss = itt.Predict(in.PC, hist.Global) != in.Target
			itt.Update(in.PC, hist.Global, in.Target)
		}
		hist.Update(in.PC, true)
		if miss {
			mispredicts++
		}
	}
	return insts, branches, mispredicts
}

// engineCounts are the outcomes of driving an engine over a stream.
type engineCounts struct {
	insts, loads, delivered, correct uint64
}

// driveEngine probes and trains eng on every predictable load in
// program order (each load trains before the next is probed), keeping
// the branch and load-path histories and a memory image the way the
// front end does. A nil eng runs the same walk without engine calls,
// which is the driver's own overhead.
func driveEngine(rep *trace.Replay, eng cpu.Engine) engineCounts {
	var c engineCounts
	image := rep.Mem().Clone()
	resolve := func(addr uint64, size uint8) (uint64, bool) { return image.Read(addr, size), true }
	var hist branch.History
	var loadPath uint64
	cur := rep.Cursor()
	var in trace.Inst
	for cur.Next(&in) {
		c.insts++
		switch {
		case in.Op == trace.OpBranch:
			hist.Update(in.PC, in.Taken)
		case in.IsBranch():
			hist.Update(in.PC, true)
		case in.Op == trace.OpStore:
			image.Write(in.Addr, in.Size, in.Value)
		case in.Op == trace.OpLoad:
			if eng != nil && !in.Flags.NoPredict() {
				c.loads++
				rec, pred, used := eng.Probe(core.Probe{PC: in.PC, BranchHist: hist.Global, LoadPath: loadPath})
				if used {
					c.delivered++
					v := pred.Value
					if pred.Kind == core.KindAddress {
						v, _ = resolve(pred.Addr, in.Size)
					}
					if v == in.Value {
						c.correct++
					}
				}
				eng.Train(core.Outcome{PC: in.PC, BranchHist: hist.Global, LoadPath: loadPath,
					Addr: in.Addr, Size: in.Size, Value: in.Value}, rec, resolve)
			}
			loadPath = (loadPath << 6) ^ ((in.PC >> 2) & 0xFFF)
		}
		if eng != nil && c.insts%1024 == 0 {
			eng.Instret(1024)
		}
	}
	return c
}

// ledgerStream is one stream the ledger measures: its name, its
// recording and the instruction budget it was recorded at.
type ledgerStream struct {
	name  string
	insts uint64
	rep   *trace.Replay
}

// timed runs f and returns its wall time, inside a span of the given
// layer when spans are recorded.
func timed(spans *spanLog, parent *otrace.Span, layer string, f func()) time.Duration {
	s := spans.start(layer, parent)
	t := time.Now()
	f()
	d := time.Since(t)
	spans.end(s)
	return d
}

// simLedger measures the simulation layers standalone over the
// workload's recorded streams and reports each layer's cost, its work
// count and its useful-outcome ratio, plus the ledger check: the full
// pipeline run against the sum of its parts. specs is the workload's
// request mix for the spec layer. Short streams are measured
// repeatedly, so every layer's clock covers at least minInsts
// instructions; counts are reported per pass over the streams.
func simLedger(r *report, streams []ledgerStream, specs []spec.Sim, seed, minInsts uint64, spans *spanLog) error {
	root := spans.start("ledger", nil)
	defer spans.end(root)
	var (
		insts                                  uint64
		genT, recT, replayT, memT, brT, encT   time.Duration
		decT, noengT, coreT, evesT, fullT      time.Duration
		accesses, branches, mispred            uint64
		l1dHitSum                              float64
		coreC, evesC                           engineCounts
		probes, trains                         uint64
		coreBusy, evesBusy, coreWall, evesWall time.Duration
		decoded                                uint64
		best, eves                             = predictor(spec.FamilyBest), predictor(spec.FamilyEVES)
		cfg                                    = cpu.DefaultConfig()
	)
	var total uint64
	for _, st := range streams {
		total += uint64(st.rep.Len())
	}
	if total == 0 {
		return fmt.Errorf("ledger: no instructions in %d streams", len(streams))
	}
	reps := int((minInsts + total - 1) / total)
	for i := 0; i < reps*len(streams); i++ {
		st := streams[i%len(streams)]
		n := uint64(st.rep.Len())
		insts += n
		genT += timed(spans, root, "trace", func() {
			g, _ := trace.BuildStream(st.name, st.insts)
			var in trace.Inst
			for g.Next(&in) {
			}
		})
		recT += timed(spans, root, "trace", func() {
			g, _ := trace.BuildStream(st.name, st.insts)
			trace.Record(g, 0)
		})
		rt := timed(spans, root, "trace", func() { driveReplay(st.rep) })
		replayT += rt
		memT += timed(spans, root, "mem", func() {
			_, a, h := driveMem(st.rep)
			accesses += a
			l1dHitSum += h * float64(n)
		}) - rt
		brT += timed(spans, root, "branch", func() {
			_, b, m := driveBranch(st.rep)
			branches += b
			mispred += m
		}) - rt
		var buf bytes.Buffer
		var encErr error
		encT += timed(spans, root, "tracein", func() { _, encErr = tracein.Encode(&buf, st.rep.Cursor()) })
		if encErr != nil {
			return fmt.Errorf("ledger: encoding %s: %w", st.name, encErr)
		}
		var decErr error
		decT += timed(spans, root, "tracein", func() {
			d, err := tracein.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				decErr = err
				return
			}
			var rec tracein.Record
			for d.Next(&rec) {
			}
			decoded += d.Decoded()
			decErr = d.Err()
		})
		if decErr != nil {
			return fmt.Errorf("ledger: decoding %s: %w", st.name, decErr)
		}

		// Engines standalone: the driver's walk with the engine minus
		// the same walk without it.
		walk := timed(spans, root, "trace", func() { driveEngine(st.rep, nil) })
		for _, e := range []struct {
			p   spec.PredictorSpec
			c   *engineCounts
			t   *time.Duration
			lay string
		}{{best, &coreC, &coreT, "core"}, {eves, &evesC, &evesT, "eves"}} {
			eng, err := spec.NewEngine(e.p, st.insts, seed)
			if err != nil {
				return err
			}
			var c engineCounts
			*e.t += timed(spans, root, e.lay, func() { c = driveEngine(st.rep, eng) }) - walk
			e.c.insts += c.insts
			e.c.loads += c.loads
			e.c.delivered += c.delivered
			e.c.correct += c.correct
		}

		// The pipeline without an engine, then the full stack. The full
		// runs are repeated under the timing decorator for the in-situ
		// call counts and busy fractions.
		noengT += timed(spans, root, "cpu", func() {
			p := cpu.Acquire(cfg, nil)
			p.Run(st.rep.Cursor(), st.name, "none")
			cpu.Release(p)
		})
		for _, p := range []spec.PredictorSpec{best, eves} {
			eng, err := spec.NewEngine(p, st.insts, seed)
			if err != nil {
				return err
			}
			fullT += timed(spans, root, "cpu", func() {
				pl := cpu.Acquire(cfg, eng)
				pl.Run(st.rep.Cursor(), st.name, "full")
				cpu.Release(pl)
			})
			inner, _ := spec.NewEngine(p, st.insts, seed)
			te := &timedEngine{inner: inner}
			wall := timed(spans, root, "cpu", func() {
				pl := cpu.Acquire(cfg, te)
				pl.Run(st.rep.Cursor(), st.name, "decorated")
				cpu.Release(pl)
			})
			if p.Family == spec.FamilyEVES {
				evesBusy += te.busy
				evesWall += wall
			} else {
				probes += te.probes
				trains += te.trains
				coreBusy += te.busy
				coreWall += wall
			}
		}
	}

	nsPer := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	perPass := func(n uint64) float64 { return float64(n) / float64(reps) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("trace.gen_ns_per_inst", nsPer(genT, insts), "ns")
	r.set("trace.record_ns_per_inst", nsPer(recT, insts), "ns")
	r.set("trace.replay_ns_per_inst", nsPer(replayT, insts), "ns")
	r.set("tracein.encode_ns_per_inst", nsPer(encT, insts), "ns")
	r.set("tracein.decode_ns_per_inst", nsPer(decT, decoded), "ns")
	r.set("mem.ns_per_access", nsPer(memT, accesses), "ns")
	r.set("mem.accesses", perPass(accesses), "count")
	r.set("mem.l1d_hit_ratio", l1dHitSum/float64(insts), "ratio")
	r.set("branch.ns_per_branch", nsPer(brT, branches), "ns")
	r.set("branch.branches", perPass(branches), "count")
	r.set("branch.mispredict_ratio", ratio(mispred, branches), "ratio")
	r.set("core.ns_per_load", nsPer(coreT, coreC.loads), "ns")
	r.set("core.loads", perPass(coreC.loads), "count")
	r.set("core.coverage_ratio", ratio(coreC.delivered, coreC.loads), "ratio")
	r.set("core.accuracy_ratio", ratio(coreC.correct, coreC.delivered), "ratio")
	r.set("eves.ns_per_load", nsPer(evesT, evesC.loads), "ns")
	r.set("eves.coverage_ratio", ratio(evesC.delivered, evesC.loads), "ratio")
	r.set("cpu.noengine_ns_per_inst", nsPer(noengT, insts), "ns")
	self := noengT - memT - brT - replayT
	r.set("cpu.self_ns_per_inst", nsPer(self, insts), "ns")
	r.set("core.probe_calls", perPass(probes), "count")
	r.set("core.train_calls", perPass(trains), "count")
	r.set("core.busy_frac", coreBusy.Seconds()/coreWall.Seconds(), "ratio")
	r.set("eves.busy_frac", evesBusy.Seconds()/evesWall.Seconds(), "ratio")

	// Ledger check: each full run (best, eves) should cost the pipeline
	// without an engine plus the engine standalone.
	parts := 2*noengT + coreT + evesT
	resid := float64(fullT-parts) / float64(fullT)
	if resid < 0 {
		resid = -resid
	}
	r.set("ledger.residual_frac", resid, "ratio")

	const canonReps = 200
	canonT := timed(spans, root, "spec", func() {
		for i := 0; i < canonReps; i++ {
			for _, s := range specs {
				s.Canonical(spec.Defaults{})
			}
		}
	})
	r.set("spec.canonical_ns", nsPer(canonT, uint64(canonReps*len(specs))), "ns")
	return nil
}
