package cluster

import (
	"context"
	"errors"
	"sync"

	"repro/internal/trace"
)

// shipTraces uploads the recorded-trace artifact of each distinct
// (workload, insts) stream among the launched points to every active
// worker that does not hold it yet (PUT /v1/traces/{hash}). It runs
// synchronously in StartSweep, before dispatch: artifacts are small (a
// gzip-compressed stream, a few bytes per instruction) and shipping
// them first means even the sweep's first point replays a recording.
//
// Each worker remembers the artifacts it accepted, so an artifact
// travels to a worker once, not once per sweep; a stream every target
// already holds is neither re-encoded nor re-sent. The memory resets
// whenever the worker registers or is reactivated (activateLocked).
//
// Everything here is best-effort. A worker that misses its upload —
// registered mid-sweep, transient network failure, artifact too large —
// or that evicted an artifact it accepted earlier simply generates the
// stream live when its point arrives, which is exactly the
// pre-shipping behavior.
func (c *Coordinator) shipTraces(sw *sweep, launch []*point) {
	if len(launch) == 0 {
		return
	}
	type workloadSpec struct {
		name  string
		insts uint64
	}
	specs := make(map[workloadSpec]struct{})
	for _, pt := range launch {
		// Multi-context points replay one stream per hardware context;
		// single-context points reduce to the bare workload name.
		for _, stream := range pt.sim.ContextStreams() {
			specs[workloadSpec{stream, pt.sim.Workload.Insts}] = struct{}{}
		}
	}

	// target is one active worker and its accepted-artifact set as of
	// this snapshot; a reactivation meanwhile swaps the set, so late
	// records land in the discarded one.
	type target struct {
		url     string
		shipped map[string]struct{}
	}
	need := make(map[workloadSpec][]target)
	c.mu.Lock()
	for ws := range specs {
		key := trace.ArtifactKey(ws.name, ws.insts)
		for _, w := range c.workers {
			if w.state != WorkerActive {
				continue
			}
			if _, ok := w.shipped[key]; !ok {
				need[ws] = append(need[ws], target{w.url, w.shipped})
			}
		}
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for ws, targets := range need {
		key, data, err := c.traces.Artifact(ws.name, ws.insts)
		if errors.Is(err, trace.ErrOversize) {
			continue // too big to record; every worker generates live
		}
		if err != nil {
			// Unknown workload or unreadable cache: dispatch validation
			// will surface the former; the latter only loses the reuse.
			c.log.Warn("trace artifact unavailable, workers will generate live",
				"sweep", sw.id, "workload", ws.name, "insts", ws.insts, "err", err)
			continue
		}
		// The coordinator never replays a recording, so once encoded it
		// has no use here. A worker that needs the artifact later (a
		// registration, a reactivation) gets it reloaded from the cache
		// directory or generated again.
		c.traces.Evict(key)
		for _, t := range targets {
			wg.Add(1)
			go func(t target) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(c.lifeCtx, c.cfg.PointDeadline)
				defer cancel()
				if err := c.workerClient(t.url, nil).putTrace(ctx, key, data); err != nil {
					c.mTraceShipFailed.Inc()
					c.log.Warn("trace artifact ship failed, worker will generate live",
						"sweep", sw.id, "worker", t.url, "artifact", key, "err", err)
					return
				}
				c.mu.Lock()
				t.shipped[key] = struct{}{}
				c.mu.Unlock()
				c.mTraceShipped.Inc()
			}(t)
		}
	}
	wg.Wait()
}
