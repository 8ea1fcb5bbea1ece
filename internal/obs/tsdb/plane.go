package tsdb

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
)

// PlaneConfig wires one daemon into its observability plane. Zero
// hooks are skipped.
type PlaneConfig struct {
	// Prefix names the plane's own metrics in Registry:
	// <prefix>_tsdb_series, <prefix>_tsdb_dropped_series_total and
	// <prefix>_alerts_firing.
	Prefix string

	// Registry is the daemon's metrics registry, scraped every tick as
	// target "self".
	Registry *obs.Registry

	// ScrapeInterval and Retention size the store (see Options).
	ScrapeInterval time.Duration
	Retention      time.Duration

	// Remote returns scrape targets beyond self, re-evaluated every
	// tick (a coordinator's workers).
	Remote func() []Target

	// OnScrape runs after each tick's scrapes (flight sampling).
	OnScrape func(now time.Time)

	// Rules enables SLO alerting; Log and Service tag its log lines and
	// webhook payloads. OnAlert runs on every firing or resolved
	// transition.
	Rules   *RuleSet
	Log     *slog.Logger
	Service string
	OnAlert func(Notification)

	// QueryExtra adds fields to every GET /v1/metrics/query response
	// (a coordinator's scrape health per worker).
	QueryExtra func() map[string]any
}

// Plane is a daemon's embedded observability plane: the time-series
// store, the collector feeding it, and the optional SLO alerter over
// it. Both lvpd and the coordinator run one; they differ only in the
// PlaneConfig hooks they pass.
type Plane struct {
	DB        *DB
	Collector *Collector
	Alerter   *Alerter // nil without rules

	queryExtra func() map[string]any
	wg         sync.WaitGroup
}

// NewPlane builds the plane and registers its self-metrics. The store
// watches itself: series count and cardinality-cap drops are regular
// metrics, so a label blowup shows up in the very store it is blowing
// up. The alerting gauge is registered with or without rules so the
// exposition is stable either way.
func NewPlane(cfg PlaneConfig) *Plane {
	p := &Plane{
		DB:         New(Options{ScrapeInterval: cfg.ScrapeInterval, Retention: cfg.Retention}),
		queryExtra: cfg.QueryExtra,
	}
	self := RegistryTarget("self", cfg.Registry)
	p.Collector = &Collector{
		DB:       p.DB,
		Interval: cfg.ScrapeInterval,
		Targets: func() []Target {
			targets := []Target{self}
			if cfg.Remote != nil {
				targets = append(targets, cfg.Remote()...)
			}
			return targets
		},
		OnScrape: cfg.OnScrape,
	}
	if cfg.Rules != nil {
		p.Alerter = NewAlerter(p.DB, cfg.Rules, cfg.Log, cfg.Service)
		p.Alerter.OnTransition = cfg.OnAlert
	}
	cfg.Registry.GaugeFunc(cfg.Prefix+"_tsdb_series",
		"Time series held by the embedded metrics store.",
		func() float64 { return float64(p.DB.SeriesCount()) })
	cfg.Registry.CounterFunc(cfg.Prefix+"_tsdb_dropped_series_total",
		"Series rejected by the embedded store's cardinality cap.",
		func() float64 { return float64(p.DB.DroppedSeries()) })
	cfg.Registry.GaugeFunc(cfg.Prefix+"_alerts_firing",
		"SLO alert rules currently firing (0 when alerting is disabled).",
		func() float64 {
			if p.Alerter == nil {
				return 0
			}
			return float64(p.Alerter.FiringCount())
		})
	return p
}

// Run launches the collector and alerter loops on ctx. Cancel ctx and
// call Wait to stop them.
func (p *Plane) Run(ctx context.Context) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.Collector.Run(ctx)
	}()
	if p.Alerter != nil {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.Alerter.Run(ctx)
		}()
	}
}

// Wait blocks until the loops Run started have exited.
func (p *Plane) Wait() { p.wg.Wait() }

// ScrapeOnce runs one collection pass with an explicit clock — the
// deterministic twin of the collector's ticker, for tests.
func (p *Plane) ScrapeOnce(now time.Time) {
	p.Collector.ScrapeOnce(context.Background(), now)
}

// Evaluate runs one alert evaluation pass with an explicit clock.
// No-op without rules.
func (p *Plane) Evaluate(now time.Time) {
	if p.Alerter != nil {
		p.Alerter.Evaluate(now)
	}
}
