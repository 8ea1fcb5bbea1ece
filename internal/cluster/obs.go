package cluster

import "repro/internal/obs/tsdb"

// initObs builds the coordinator's observability plane: the embedded
// time-series store scrapes the coordinator's own registry plus every
// registered (non-drained) worker's /metrics. Worker samples are merged
// under a worker="<id>" label, so one federated query ranges over the
// whole fleet. Called from New.
func (c *Coordinator) initObs() {
	c.plane = tsdb.NewPlane(tsdb.PlaneConfig{
		Prefix:         "lvpc",
		Registry:       c.reg,
		ScrapeInterval: c.cfg.ObsScrapeInterval,
		Retention:      c.cfg.ObsRetention,
		Remote:         c.workerTargets,
		Rules:          c.cfg.Alerts,
		Log:            c.log,
		Service:        c.cfg.ServiceName,
		QueryExtra:     c.scrapeHealth,
	})
	for _, state := range []string{WorkerActive, WorkerQuarantined, WorkerDrained} {
		st := state
		c.reg.GaugeFunc("lvpc_workers", "Registered workers by state.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				n := 0
				for _, w := range c.workers {
					if w.state == st {
						n++
					}
				}
				return float64(n)
			}, "state", st)
	}
}

// workerTargets is the plane's dynamic remote target set: one /metrics
// scrape per non-drained worker. Re-evaluated every tick, so workers
// joining, draining, or being quarantined change the scrape set
// without restarts (a quarantined worker stays scraped: its metrics
// going stale versus its process being up is exactly what an operator
// wants to see).
func (c *Coordinator) workerTargets() []tsdb.Target {
	c.mu.Lock()
	defer c.mu.Unlock()
	var targets []tsdb.Target
	for id, w := range c.workers {
		if w.state == WorkerDrained {
			continue
		}
		targets = append(targets, tsdb.HTTPTarget(id, w.url+"/metrics",
			c.hc, c.cfg.HealthTimeout, "worker", id))
	}
	return targets
}

// scrapeHealth annotates every GET /v1/metrics/query response with
// per-target scrape health and the quarantined worker set, so a
// dashboard reading a merged series knows which workers' samples are
// stale rather than silently trusting the merge.
func (c *Coordinator) scrapeHealth() map[string]any {
	statuses := c.plane.Collector.Statuses()
	var stale []string
	for _, st := range statuses {
		if !st.Healthy {
			stale = append(stale, st.Key)
		}
	}
	c.mu.Lock()
	var quarantined []string
	for id, wk := range c.workers {
		if wk.state == WorkerQuarantined {
			quarantined = append(quarantined, id)
		}
	}
	c.mu.Unlock()
	extra := map[string]any{"targets": statuses}
	if len(stale) > 0 {
		extra["stale_targets"] = stale
	}
	if len(quarantined) > 0 {
		extra["quarantined_workers"] = quarantined
	}
	return extra
}
