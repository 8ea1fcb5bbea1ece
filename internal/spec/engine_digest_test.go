package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// digestInsts is the per-run budget of the engine digest gate: long
// enough for the scaled M-AM and fusion epochs to turn over several
// times, so epoch-driven throttling and fusion decisions are covered.
const digestInsts = 200_000

// digestWorkloads spans three trace profiles: integer (gcc2k), pointer
// chasing (mcf) and JavaScript-engine (v8).
var digestWorkloads = []string{"gcc2k", "mcf", "v8"}

// engineDigests pins, per predictor configuration, the SHA-256 over
// every digest workload of the run's stats.Run, the composite's
// core.CompositeStats and its fusion event count. They were recorded
// before any engine optimisation, so a change inside internal/core or
// internal/eves that alters one simulated decision fails here even
// though the pipeline differential (internal/cpu TestGoldenDifferential)
// still passes: both of its sides call the same engine.
var engineDigests = []struct {
	name   string
	pred   PredictorSpec
	fusion bool // fusion must engage on at least one workload
	digest string
}{
	{"best", PredictorSpec{Family: FamilyBest}, true,
		"b762e3586705a347ff9c139bd13eea85aa643020d646582734528858bb7dc328"},
	{"composite", PredictorSpec{Family: FamilyComposite}, false,
		"63c9d17a50c730b03388d313265405eb64768f87f7032406686b43ec1b099187"},
	{"m-am", PredictorSpec{Family: FamilyComposite, AM: AMM}, false,
		"0d559f0cd0af36e4df6cef0284edd04ddc7c10b2f8b51262fec12467fc614be9"},
	{"pcinf-smart", PredictorSpec{Family: FamilyComposite, AM: AMPCInf, SmartTraining: true}, false,
		"43f10b1e51211d2232ffa13f0802266f5c51912237b0b5fc1e95d33fb6262463"},
	{"smart-fusion-pc", PredictorSpec{Family: FamilyComposite, AM: AMPC, SmartTraining: true, Fusion: true}, true,
		"a9785741713afbb08bcbb3de603e7fd32bec03620123ad731853299f2e4ad90f"},
	{"value-pool", PredictorSpec{Family: FamilyComposite, ValuePoolSlots: 512}, false,
		"53a407da8770a7f18097f3121002e4af14f596d45576781993c37b53f74bb0cb"},
	{"heterogeneous", PredictorSpec{Family: FamilyComposite, Entries: [core.NumComponents]int{2048, 256, 1024, 512}}, false,
		"2d8168d3f2879da798251a9f12b74d067135cf07ad1fc021c9d80162ea490cc9"},
	{"lvp", PredictorSpec{Family: FamilyLVP}, false,
		"f55a7869128441550b5e8d669a267d7d4cc841276651437bd5f6cc48cfbf23b8"},
	{"sap", PredictorSpec{Family: FamilySAP}, false,
		"fd799e0856c24989454182d53ad71327f97013c30390f985e2a078c2da8749da"},
	{"cvp", PredictorSpec{Family: FamilyCVP}, false,
		"ca66166a07600bc91e97294df4ef438fb6c8e8bfa5d2592ec7f4f6bb678948e1"},
	{"cap", PredictorSpec{Family: FamilyCAP}, false,
		"2cacf1838005262a45c9df9b340995c08cac2eb7a771dd86ab61e4e1b7583941"},
	{"eves", PredictorSpec{Family: FamilyEVES}, false,
		"70b1d3e4896394a052062bd0a27faa2838bfa7e0dfbb3e12516db5a73122dd38"},
}

// TestEngineBitIdentity is the engine's bit-identity gate: every
// predictor configuration must reproduce its pinned digest exactly.
// An intended change to simulated behaviour must re-pin the digests
// and say why in CHANGES.md; a speed optimisation must not.
func TestEngineBitIdentity(t *testing.T) {
	for _, tc := range engineDigests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.pred
			p.Normalize()
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			fusions := 0
			for i, name := range digestWorkloads {
				w, ok := trace.ByName(name)
				if !ok {
					t.Fatalf("unknown workload %q", name)
				}
				eng, err := NewEngine(p, digestInsts, uint64(i+1))
				if err != nil {
					t.Fatal(err)
				}
				pipe := cpu.Acquire(cpu.DefaultConfig(), eng)
				run := pipe.Run(w.Build(digestInsts), name, tc.name)
				cpu.Release(pipe)
				fmt.Fprintf(h, "%s %+v\n", name, run)
				if ce, ok := eng.(*cpu.CompositeEngine); ok {
					n := core.FusionEventsOf(ce.C)
					fusions += n
					fmt.Fprintf(h, "%+v fusion=%d\n", ce.C.Stats(), n)
				}
			}
			if tc.fusion && fusions == 0 {
				t.Errorf("fusion never engaged over %v", digestWorkloads)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("engine digest changed:\n got %s\nwant %s", got, tc.digest)
			}
		})
	}
}
