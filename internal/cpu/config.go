// Package cpu models the paper's baseline out-of-order core (Table III)
// as a trace-driven, cycle-level timing model: a Skylake-class window
// (ROB 224, IQ 97, LDQ 72, STQ 56), 4-wide fetch-through-rename, 8-wide
// issue-through-commit with two load/store lanes, a 13-cycle
// fetch-to-execute depth, TAGE/ITTAGE branch prediction, store-set
// memory dependence prediction, and the Table III cache hierarchy.
//
// Value prediction is integrated exactly as in the paper's Figure 1:
// predictors are probed at fetch; value predictions are forwarded to
// the Value Prediction Engine so consumers see a zero-cycle load-to-use
// latency; address predictions enter the Predicted Address Queue, wait
// for a load-pipe bubble, and probe the L1 data cache for a speculative
// value. All predictions are validated when the load executes, and a
// wrong speculative value triggers a flush-based recovery.
package cpu

import (
	"repro/internal/branch"
	"repro/internal/mem"
	"repro/internal/memdep"
)

// Config describes the simulated core.
type Config struct {
	// Front end.
	FetchWidth  int // instructions fetched/renamed per cycle (4)
	FetchToExec int // fetch-to-execute depth in cycles (13)

	// Back end.
	IssueWidth  int // instructions issued per cycle (8)
	CommitWidth int // instructions committed per cycle (8)
	LSLanes     int // execution lanes supporting loads/stores (2)

	// Window sizes.
	ROB int // 224
	IQ  int // 97
	LDQ int // 72
	STQ int // 56

	// Store-to-load forwarding latency when an older in-window store
	// has already executed.
	StoreForwardLat int

	Hierarchy mem.HierarchyConfig
	TAGE      branch.TAGEConfig
	ITTAGE    branch.ITTAGEConfig
	RASSize   int
	MemDep    memdep.Config

	// PAQDepth bounds the Predicted Address Queue: address predictions
	// beyond this many in-flight probes are dropped (no speculation).
	// <= 0 means unbounded.
	PAQDepth int

	// PAQPrefetchOnMiss enables the optional data prefetch when a PAQ
	// probe misses the L1 (paper Figure 1 step 5 — disabled in the
	// paper, enabled here; see DESIGN.md §5a.1). The ablation bench
	// quantifies it.
	PAQPrefetchOnMiss bool

	// SuppressStoreConflicts withholds address-prediction speculation
	// for loads the store-set predictor links to in-flight stores
	// (DESIGN.md §5a.2).
	SuppressStoreConflicts bool

	// ReplayRecovery models value-misprediction recovery as a
	// selective replay of the mispredicted load's consumers instead of
	// a full front-end flush: the pipeline charges ReplayPenalty cycles
	// on the load's completion but does not redirect fetch. The paper
	// assumes flush-based recovery (Section III-A); this switch exists
	// for the recovery-cost ablation.
	ReplayRecovery bool
	ReplayPenalty  int

	// Contexts is the number of SMT hardware contexts the pipeline
	// replicates per-context state for (fetch/replay cursors, window
	// rings, in-flight tables — see ctxSlice). The contexts share the
	// value-prediction engine, the branch predictor tables and RAS, the
	// cache hierarchy, and the TLB. 0 and 1 both mean a single context;
	// the single-context model is bit-identical to the pre-SMT pipeline.
	Contexts int

	// SMTQuantum is the interleave policy of RunSMT: how many
	// instructions one context runs before the round-robin moves to the
	// next. <= 0 means 1 (per-instruction round-robin); larger quanta
	// (e.g. 64, the "block" policy) give each context bursts of
	// exclusive access to the shared predictor and cache state.
	SMTQuantum int
}

// DefaultConfig returns the paper's Table III baseline configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:             4,
		FetchToExec:            13,
		IssueWidth:             8,
		CommitWidth:            8,
		LSLanes:                2,
		ROB:                    224,
		IQ:                     97,
		LDQ:                    72,
		STQ:                    56,
		StoreForwardLat:        4,
		Hierarchy:              mem.DefaultHierarchyConfig(),
		TAGE:                   branch.DefaultTAGEConfig(),
		ITTAGE:                 branch.DefaultITTAGEConfig(),
		RASSize:                16,
		MemDep:                 memdep.DefaultConfig(),
		PAQDepth:               24,
		PAQPrefetchOnMiss:      true,
		SuppressStoreConflicts: true,
		ReplayPenalty:          12,
	}
}
