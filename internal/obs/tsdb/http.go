package tsdb

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// HandleQuery serves GET /v1/metrics/query against the plane's store.
//
// Parameters:
//
//	q        expression (required), e.g. rate(lvpd_jobs_total[5m])
//	time_ms  instant query evaluation time (default: now)
//	start_ms, end_ms, step_ms
//	         range query bounds; presence of start_ms+end_ms selects
//	         range mode (step defaults to the scrape interval)
//
// PlaneConfig.QueryExtra, when set, is merged into the response object
// — the coordinator uses it to annotate fleet scrape health per worker.
func (p *Plane) HandleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing q parameter"})
		return
	}
	e, err := ParseExpr(q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	resp := map[string]any{"query": e.String()}
	if p.queryExtra != nil {
		for k, v := range p.queryExtra() {
			resp[k] = v
		}
	}

	startMS, hasStart := queryInt(r, "start_ms")
	endMS, hasEnd := queryInt(r, "end_ms")
	if hasStart || hasEnd {
		if !hasStart || !hasEnd || endMS < startMS {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "range query needs start_ms <= end_ms"})
			return
		}
		stepMS, _ := queryInt(r, "step_ms")
		resp["results"] = orEmptySeries(p.DB.EvalRange(e,
			time.UnixMilli(startMS), time.UnixMilli(endMS),
			time.Duration(stepMS)*time.Millisecond))
		writeJSON(w, http.StatusOK, resp)
		return
	}

	at := time.Now()
	if tms, ok := queryInt(r, "time_ms"); ok {
		at = time.UnixMilli(tms)
	}
	resp["results"] = orEmptyInstant(p.DB.Eval(e, at))
	writeJSON(w, http.StatusOK, resp)
}

// orEmptyInstant / orEmptySeries keep "results" a JSON array (never
// null) so curl | jq pipelines and the CI smoke don't special-case.
func orEmptyInstant(rs []InstantResult) []InstantResult {
	if rs == nil {
		return []InstantResult{}
	}
	return rs
}

func orEmptySeries(rs []SeriesResult) []SeriesResult {
	if rs == nil {
		return []SeriesResult{}
	}
	return rs
}

// HandleAlerts serves GET /v1/alerts. A plane without rules (no
// -alerts-file) reports alerting disabled with an empty list rather
// than a 404, so dashboards can poll unconditionally.
func (p *Plane) HandleAlerts(w http.ResponseWriter, r *http.Request) {
	a := p.Alerter
	if a == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false, "alerts": []AlertStatus{}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"firing":  a.FiringCount(),
		"alerts":  a.Alerts(),
	})
}

func queryInt(r *http.Request, key string) (int64, bool) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
