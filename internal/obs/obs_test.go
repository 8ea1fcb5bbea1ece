package obs

import (
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", "state", "done")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same counter.
	if r.Counter("jobs_total", "jobs", "state", "done") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different label value is a different series.
	c2 := r.Counter("jobs_total", "jobs", "state", "failed")
	if c2 == c {
		t.Fatal("distinct labels returned the same counter")
	}

	g := r.Gauge("queue_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	insts := r.Counter("sim_instructions_total", "instructions")
	secs := 0.0
	r.GaugeFunc("sim_mips", "derived throughput", func() float64 {
		if secs <= 0 {
			return 0
		}
		return float64(insts.Value()) / 1e6 / secs
	})

	render := func() string {
		var b strings.Builder
		r.WriteTo(&b)
		return b.String()
	}
	if out := render(); !strings.Contains(out, "# TYPE sim_mips gauge") || !strings.Contains(out, "sim_mips 0") {
		t.Errorf("initial render missing zero gauge:\n%s", out)
	}

	// The function is re-evaluated at every scrape.
	insts.Add(3_000_000)
	secs = 2
	if out := render(); !strings.Contains(out, "sim_mips 1.5") {
		t.Errorf("derived gauge not recomputed at scrape:\n%s", out)
	}

	// Re-registration keeps the first function.
	r.GaugeFunc("sim_mips", "derived throughput", func() float64 { return -1 })
	if out := render(); !strings.Contains(out, "sim_mips 1.5") {
		t.Errorf("re-registration replaced the gauge function:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(x)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 560.5 {
		t.Fatalf("sum = %g, want 560.5", h.Sum())
	}
	var b strings.Builder
	r.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="100"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 560.5`,
		`lat_count 5`,
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help text a", "k", `va"l`).Add(3)
	r.Gauge("b", "help text b").Set(-2)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP a_total help text a",
		"# TYPE a_total counter",
		`a_total{k="va\"l"} 3`,
		"# TYPE b gauge",
		"b -2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1, 2, 4})
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 5))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %d, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escaping", "v", `quote " backslash \ newline `+"\n"+` done`).Inc()

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `esc_total{v="quote \" backslash \\ newline \n done"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("output missing %q:\n%s", want, out)
	}
	// The rendered value must stay one exposition line: a raw newline in
	// a label value corrupts every line after it.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "esc_total") && !strings.HasPrefix(line, "obs_dropped_series_total") {
			t.Fatalf("stray exposition line %q:\n%s", line, out)
		}
	}
}

func TestHistogramWithLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2}, "worker", `w"1`)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{worker="w\"1",le="1"} 1`,
		`lat_seconds_bucket{worker="w\"1",le="2"} 2`,
		`lat_seconds_bucket{worker="w\"1",le="+Inf"} 3`,
		`lat_seconds_sum{worker="w\"1"} 11`,
		`lat_seconds_count{worker="w\"1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRegisterWhileScrape(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("reg_total", "r", "g", fmt.Sprintf("%d-%d", g, i%50)).Inc()
				r.Histogram("reg_h", "rh", []float64{1}, "g", fmt.Sprintf("%d-%d", g, i%50)).Observe(1)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if _, err := r.WriteTo(io.Discard); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSeriesCap(t *testing.T) {
	r := NewRegistry()
	r.SetMaxSeries(4) // 1 slot already used by obs_dropped_series_total
	var kept []*Counter
	for i := 0; i < 10; i++ {
		kept = append(kept, r.Counter("capped_total", "c", "i", fmt.Sprintf("%d", i)))
	}
	// Every caller still gets a usable instrument.
	for _, c := range kept {
		c.Inc()
	}
	// Re-registering a retained series returns the same instrument, and
	// does not count as a new drop.
	if r.Counter("capped_total", "c", "i", "0") != kept[0] {
		t.Fatal("re-registration of retained series returned a new counter")
	}

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "capped_total{"); got != 3 {
		t.Fatalf("rendered %d capped_total series, want 3:\n%s", got, out)
	}
	if !strings.Contains(out, "obs_dropped_series_total 7") {
		t.Fatalf("output missing obs_dropped_series_total 7:\n%s", out)
	}
}

func TestHandlerLogsWriteError(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	var buf strings.Builder
	r.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))

	req := httptest.NewRequest("GET", "/metrics", nil)
	r.Handler().ServeHTTP(failingWriter{httptest.NewRecorder()}, req)
	if !strings.Contains(buf.String(), "metrics scrape truncated") {
		t.Fatalf("handler did not log the write failure; log: %q", buf.String())
	}
}

type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// WriteString shadows the recorder's promoted StringWriter so
// io.WriteString cannot route around the failing Write.
func (failingWriter) WriteString(string) (int, error) { return 0, io.ErrClosedPipe }

// TestCodeLabel pins the status-code label: the exact decimal code for
// every valid status, "other" outside 100-599, and no allocation.
func TestCodeLabel(t *testing.T) {
	for code := 100; code < 600; code++ {
		if got, want := CodeLabel(code), strconv.Itoa(code); got != want {
			t.Fatalf("CodeLabel(%d) = %q, want %q", code, got, want)
		}
	}
	for _, code := range []int{-1, 0, 99, 600, 1000} {
		if got := CodeLabel(code); got != "other" {
			t.Errorf("CodeLabel(%d) = %q, want other", code, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = CodeLabel(422) }); n != 0 {
		t.Errorf("CodeLabel allocates %v times per call", n)
	}
}
