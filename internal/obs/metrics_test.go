package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(2)
			c.Add(-5) // ignored: counters only go up
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1002 {
		t.Errorf("counter = %d, want %d", got, 8*1002)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("active", "")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("active", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	// le is inclusive: an observation equal to a bound lands in that
	// bucket, per the Prometheus convention.
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 7} {
		h.Observe(int64(v * 1e9))
	}
	cum := h.cumulative()
	want := []int64{2, 4, 5, 6} // ≤1, ≤2, ≤5, +Inf (cumulative)
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("bucket %d = %d, want %d (cum=%v)", i, cum[i], w, cum)
		}
	}
	if sum, count := h.Sum(), h.Count(); sum != 17e9 || count != 6 {
		t.Errorf("sum=%v count=%d, want 17e9, 6", sum, count)
	}
}

// TestHistogramConcurrent: observations from many goroutines all count,
// and an exposition racing them prints a _count equal to its +Inf bucket.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(1)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		r.WriteTo(&b)
		var inf, count string
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `lat_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "lat_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("exposition racing observations: +Inf bucket %q, _count %q", inf, count)
		}
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
	if got := h.Sum(); got != 4000 {
		t.Errorf("sum = %v, want 4000", got)
	}
}

func TestInstrumentsIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x", "") != r.Counter("x", "") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("y", "") != r.Gauge("y", "") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("z", "", []float64{1}) != r.Histogram("z", "", []float64{1}) {
		t.Error("Histogram not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict not detected")
		}
	}()
	r.Gauge("x", "")
}

// TestExpositionGolden pins the exact Prometheus text format, families
// sorted by name.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sqlts_queries_total", "Queries executed.").Add(3)
	r.Gauge("sqlts_active", "Active things.").Set(2)
	r.CounterVec("sqlts_helpers_total", "Helpers.", "outcome", "borrowed", "denied").With("denied").Add(4)
	h := r.Histogram("sqlts_latency_seconds", "Latency.", []float64{0.001, 0.01})
	h.Observe(500e3) // ns
	h.Observe(5e6)
	h.Observe(500e6)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sqlts_active Active things.
# TYPE sqlts_active gauge
sqlts_active 2
# HELP sqlts_helpers_total Helpers.
# TYPE sqlts_helpers_total counter
sqlts_helpers_total{outcome="borrowed"} 0
sqlts_helpers_total{outcome="denied"} 4
# HELP sqlts_latency_seconds Latency.
# TYPE sqlts_latency_seconds histogram
sqlts_latency_seconds_bucket{le="0.001"} 1
sqlts_latency_seconds_bucket{le="0.01"} 2
sqlts_latency_seconds_bucket{le="+Inf"} 3
sqlts_latency_seconds_sum 0.5055
sqlts_latency_seconds_count 3
# HELP sqlts_queries_total Queries executed.
# TYPE sqlts_queries_total counter
sqlts_queries_total 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	buf := make([]byte, 1024)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "c_total 1") {
		t.Errorf("body missing metric: %q", buf[:n])
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", "")
	r.Counter("a", "")
	got := r.Families()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Families() = %v", got)
	}
}
