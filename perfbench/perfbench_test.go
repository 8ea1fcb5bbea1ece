package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/cpu"
	"repro/internal/spec"
	"repro/internal/trace"
)

func recordStream(t *testing.T, name string, insts uint64) *trace.Replay {
	t.Helper()
	g, ok := trace.BuildStream(name, insts)
	if !ok {
		t.Fatalf("unknown stream %s", name)
	}
	return trace.Record(g, 0)
}

// The timing decorator must not change what it wraps: a decorated run
// is bit-identical to the bare engine's run.
func TestTimedEngineIsTransparent(t *testing.T) {
	const insts = 30_000
	for _, name := range []string{"gcc2k", "mcf"} {
		rep := recordStream(t, name, insts)
		for _, f := range []spec.Family{spec.FamilyBest, spec.FamilyEVES} {
			bare, _ := spec.NewEngine(predictor(f), insts, 7)
			inner, _ := spec.NewEngine(predictor(f), insts, 7)
			te := &timedEngine{inner: inner}
			want := cpu.New(cpu.DefaultConfig(), bare).Run(rep.Cursor(), name, string(f))
			got := cpu.New(cpu.DefaultConfig(), te).Run(rep.Cursor(), name, string(f))
			if got != want {
				t.Errorf("%s/%s: decorated run %v, bare run %v", name, f, got, want)
			}
			if te.probes == 0 || te.trains == 0 || te.busy <= 0 {
				t.Errorf("%s/%s: decorator saw probes=%d trains=%d busy=%v", name, f, te.probes, te.trains, te.busy)
			}
		}
	}
}

// Every standalone layer driver walks the whole stream.
func TestDriversVisitEveryInstruction(t *testing.T) {
	rep := recordStream(t, "v8", 25_000)
	want := uint64(rep.Len())
	best, _ := spec.NewEngine(predictor(spec.FamilyBest), want, 1)
	eves, _ := spec.NewEngine(predictor(spec.FamilyEVES), want, 1)
	memInsts, accesses, _ := driveMem(rep)
	brInsts, branches, _ := driveBranch(rep)
	bestC := driveEngine(rep, best)
	for name, got := range map[string]uint64{
		"replay": driveReplay(rep),
		"mem":    memInsts,
		"branch": brInsts,
		"walk":   driveEngine(rep, nil).insts,
		"best":   bestC.insts,
		"eves":   driveEngine(rep, eves).insts,
	} {
		if got != want {
			t.Errorf("%s driver visited %d instructions, stream has %d", name, got, want)
		}
	}
	if accesses <= want || branches == 0 || bestC.loads == 0 {
		t.Errorf("drivers did no layer work: accesses=%d branches=%d loads=%d", accesses, branches, bestC.loads)
	}
}

// A reduced-scale run of each workload passes its correctness checks
// and reports every end-to-end metric; a traced one reports the whole
// per-layer ledger.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"sim", "service", "sweep"} {
		for _, traced := range []bool{false, true} {
			o := opts{seed: 3, seconds: 1, trace: traced, small: true, dir: t.TempDir()}
			r, err := workloads[name](o)
			if err == nil && traced {
				err = fillLayers(name, o, r)
			}
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", name, traced, err)
			}
			if r.attempted.Load() == 0 || r.failed.Load() != 0 {
				t.Errorf("%s (trace=%v): attempted=%d failed=%d: %v", name, traced, r.attempted.Load(), r.failed.Load(), r.failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := r.metrics[m]; !ok {
					t.Errorf("%s (trace=%v): metric %s missing", name, traced, m)
				}
			}
		}
	}
}

// The metric lists in the code are the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	var wls []string
	for w := range workloads {
		wls = append(wls, w)
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"workloads", names(b.Workloads), sorted(wls)},
		{"end_to_end", names(b.EndToEnd), sorted(endToEnd)},
		{"per_layer", names(b.PerLayer), sorted(perLayer)},
	} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json %v, code %v", c.what, c.json, c.code)
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s: BENCHMARK.json %v, code %v", c.what, c.json, c.code)
				break
			}
		}
	}
}
