package server

import (
	"io"
	"log/slog"
	"net/http"

	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// WorkloadUpload is the response of POST /v1/workloads: the identity an
// uploaded trace runs under, plus the converter's reconstruction report
// so the client can judge substitution fidelity before spending sweep
// budget on it.
type WorkloadUpload struct {
	// Workload is the content-addressed name ("ext:<hash>") specs
	// reference to simulate this trace.
	Workload string `json:"workload"`
	// Insts is the trace's instruction count — the maximum useful
	// per-context budget for specs over this workload.
	Insts uint64 `json:"insts"`
	// Artifact is the content address of the persisted recording in the
	// trace artifact store (GET /v1/traces/{hash} exports it).
	Artifact string `json:"artifact"`
	// BackfilledBytes counts memory-image bytes reconstructed from load
	// values rather than the trace's fill seed.
	BackfilledBytes uint64 `json:"backfilled_bytes"`
	// InconsistentLoads counts loads whose value contradicts the
	// trace's own earlier accesses (see internal/tracein); nonzero
	// means the source trace is internally inconsistent.
	InconsistentLoads uint64 `json:"inconsistent_loads,omitempty"`
	// DroppedSrcRegs counts source registers beyond the micro-op's two
	// source slots.
	DroppedSrcRegs uint64 `json:"dropped_src_regs,omitempty"`
}

// UploadHandler returns the POST /v1/workloads handler that lvpd and
// the cluster coordinator both mount. It accepts a CVP-1 style trace
// file (internal/tracein container), converts it into a recorded
// workload stream, registers it under its content-addressed
// "ext:<hash>" name, and persists it in traces so it survives restarts
// and can be pre-shipped to sweep workers. The body is the raw trace
// file; the response carries the workload name to put in specs.
// uploads counts accepted files; the log line carries the request's
// trace and its tenant (tenants resolves it, default tenant included).
func UploadHandler(traces *trace.ArtifactStore, tenants *tenant.Registry, uploads *obs.Counter, log *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceArtifactBytes))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "reading trace body: "+err.Error())
			return
		}
		// The conversion bound is the artifact store's resident budget:
		// a trace too big to record is also too big to replay through
		// sweeps, so reject it before materializing anything.
		name, rep, info, err := tracein.ConvertBytes(data, trace.DefaultArtifactBudget)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, "converting trace: "+err.Error())
			return
		}
		if _, err := trace.RegisterExternal(name, rep, true); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		key, err := traces.PutRecording(name, rep)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "persisting trace: "+err.Error())
			return
		}
		uploads.Inc()
		log.InfoContext(r.Context(), "external trace uploaded",
			"workload", name, "insts", info.Insts, "artifact", key,
			"tenant", tenants.Resolve(r.Context()).Name, "backfilled_bytes", info.BackfilledBytes,
			"inconsistent_loads", info.InconsistentLoads)
		WriteJSON(w, http.StatusCreated, WorkloadUpload{
			Workload:          name,
			Insts:             info.Insts,
			Artifact:          key,
			BackfilledBytes:   info.BackfilledBytes,
			InconsistentLoads: info.InconsistentLoads,
			DroppedSrcRegs:    info.DroppedSrcRegs,
		})
	}
}
