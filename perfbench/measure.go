package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	otrace "repro/internal/obs/trace"
	"repro/internal/obs/tsdb"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces: the end-to-end metrics of
// an untraced run or the per-layer ledger of a traced one, plus the
// operation counts and the sample count behind each timing.
type report struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	metrics  map[string]metric
	samples  map[string]int
	failures []string

	// speed is the host's speed during the run relative to nominal, and
	// raw the end-to-end values before normalize scaled them to it.
	speed float64
	raw   map[string]float64
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), samples: make(map[string]int)}
}

func (r *report) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// setSamples records how many samples a percentile metric rests on.
func (r *report) setSamples(name string, n int) {
	r.mu.Lock()
	r.samples[name] = n
	r.mu.Unlock()
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failed operation without a matching attempt (used for
// a check that fails after its operation was already counted).
func (r *report) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
	r.mu.Unlock()
}

// calibNominalNs is the calibration kernel's time at nominal host
// speed: its typical time on the 2-vCPU Xeon box the benchmark was
// defined on.
const calibNominalNs = 950_000.0

// normalize rescales every host-time metric (all end-to-end metrics
// but mem_peak_mb) to nominal host speed, given the mean calibration
// kernel time measured during the run (0 leaves the metrics raw):
// times shrink and rates grow on a host running slower than nominal,
// and the other way round. The run-to-run drift of a shared machine
// cancels out of the ratio to the extent the kernel and the workload
// slow down together.
func (r *report) normalize(calibNs float64) {
	if calibNs == 0 {
		return
	}
	r.speed = calibNominalNs / calibNs
	r.raw = make(map[string]float64)
	for _, n := range endToEnd {
		m, ok := r.metrics[n]
		if !ok || n == "mem_peak_mb" {
			continue
		}
		r.raw[n] = m.Value
		switch m.Unit {
		case "s", "ms":
			m.Value *= r.speed
		default: // rates: MIPS, 1/s
			m.Value /= r.speed
		}
		r.metrics[n] = m
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies is a goroutine-safe sample list.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(v float64) {
	l.mu.Lock()
	l.xs = append(l.xs, v)
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs...)
}

// heapSampler tracks the peak live Go heap over a timed region: the
// heap marked live by each garbage collection, sampled every
// millisecond. Unlike the heap's momentary size, it does not depend on
// where collections happen to fall.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

// startHeapSampler collects garbage first so the region starts from
// the live heap, then samples until stopped.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// timeSetup runs setup reps times and returns the median duration in
// seconds together with the last rep's value, which the caller keeps;
// earlier reps' values are released by the caller-supplied discard.
func timeSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// spanLog keeps the traced run's spans in memory (layer, start, end,
// parent; one trace id per run) and writes them out as a Chrome trace
// when the run ends.
type spanLog struct {
	mu      sync.Mutex
	traceID string
	spans   []*otrace.Span
}

func newSpanLog() *spanLog { return &spanLog{traceID: otrace.NewTraceID()} }

// start opens a span under parent (nil for a root span). A nil log
// records nothing, so untraced runs pay one nil check per boundary.
func (l *spanLog) start(layer string, parent *otrace.Span) *otrace.Span {
	if l == nil {
		return nil
	}
	s := &otrace.Span{Name: layer, TraceID: l.traceID, SpanID: otrace.NewSpanID(), Start: time.Now()}
	if parent != nil {
		s.ParentID = parent.SpanID
	}
	return s
}

func (l *spanLog) end(s *otrace.Span) {
	if l == nil || s == nil {
		return
	}
	s.End = time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write exports the spans as a Chrome trace-event file.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	events := otrace.ChromeEvents("perfbench", l.spans)
	l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := otrace.WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// client is a JSON HTTP client for the in-process daemons.
type client struct {
	hc   *http.Client
	base string
	key  string // API key, "" when the daemon runs single-tenant
}

func newClient(base, key string) *client {
	// One idle connection per client goroutine keeps requests on a warm
	// connection; the in-process servers are never far away.
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base, key: key}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON response into out (when
// non-nil). Any status outside want is an error carrying the body.
func (c *client) do(ctx context.Context, method, path string, body []byte, ctype string, out any, want ...int) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	ok := false
	for _, w := range want {
		ok = ok || resp.StatusCode == w
	}
	if !ok {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *client) postJSON(ctx context.Context, path string, in, out any, want ...int) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return c.do(ctx, http.MethodPost, path, body, "application/json", out, want...)
}

func (c *client) getJSON(ctx context.Context, path string, out any) error {
	_, err := c.do(ctx, http.MethodGet, path, nil, "", out, http.StatusOK)
	return err
}

// scrape fetches and parses a daemon's Prometheus exposition.
func (c *client) scrape(ctx context.Context) ([]tsdb.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return tsdb.ParseExposition(resp.Body)
}

// sampleSum adds every sample of the named series across families
// whose labels contain all of the given key/value pairs.
func sampleSum(fams []tsdb.Family, series string, labels ...string) float64 {
	var sum float64
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == series && hasLabels(s.Labels, labels) {
				sum += s.Value
			}
		}
	}
	return sum
}

func hasLabels(have, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		found := false
		for j := 0; j+1 < len(have); j += 2 {
			if have[j] == want[i] && have[j+1] == want[i+1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// histQuantile estimates the q-quantile of a scraped histogram the way
// Prometheus does: find the cumulative bucket holding rank q·count and
// interpolate linearly inside it. Returns 0 for an empty histogram.
func histQuantile(fams []tsdb.Family, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name+"_bucket" {
				continue
			}
			for j := 0; j+1 < len(s.Labels); j += 2 {
				if s.Labels[j] == "le" {
					le, err := strconv.ParseFloat(s.Labels[j+1], 64) // parses "+Inf" too
					if err == nil {
						bs = append(bs, bucket{le, s.Value})
					}
				}
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}

// speedMeter measures how fast the host runs a fixed calibration
// kernel during a run. Shared machines drift in speed by tens of
// percent over minutes (neighbours on sibling hardware threads). Each
// workload's callers sample inline, on their own goroutines between
// operations, so the samples see the cores the work runs on; the mean
// kernel time then tracks the speed the run saw. (Sampled from a
// separate timer goroutine instead, the kernel tracked the workloads
// poorly.)
type speedMeter struct {
	mu      sync.Mutex
	samples []float64 // kernel times, ns
}

// calibSink keeps the kernel's result live.
var calibSink atomic.Uint64

// calibKernel runs the fixed calibration work (a dependent chain of
// integer operations, about half a millisecond) and returns its time.
// It is benchmark code, not repository code, so a faster simulator
// does not speed it up.
func calibKernel() time.Duration {
	t := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink.Store(x)
	return time.Since(t)
}

// sample times one kernel inline.
func (m *speedMeter) sample() {
	d := float64(calibKernel().Nanoseconds())
	m.mu.Lock()
	m.samples = append(m.samples, d)
	m.mu.Unlock()
}

// meanNs returns the mean kernel time, 0 without samples.
func (m *speedMeter) meanNs() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range m.samples {
		sum += v
	}
	return sum / float64(len(m.samples))
}
