package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRecordAddRender is the package's -race proof: writers
// Record and Add from many goroutines while a reader renders, and the
// final totals are exact. The values are multiples of 2^-20 s, so their
// float sum is exact in any order, and the concurrently filled histogram
// must answer every quantile exactly as one filled sequentially.
func TestConcurrentRecordAddRender(t *testing.T) {
	const workers, perWorker = 8, 5000
	value := func(w, i int) float64 { return float64(1+(w*perWorker+i)%4096) / (1 << 20) }

	reg := &Registry{}
	c := reg.Counter("test_events_total", "Events.")
	shared := NewHistogram()

	done := make(chan struct{})
	var renderer sync.WaitGroup
	renderer.Add(1)
	go func() {
		defer renderer.Done()
		for {
			p := NewWriter(io.Discard)
			reg.Write(p)
			p.Histogram("test_seconds", shared)
			shared.Quantile(0.99)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shared.Record(value(w, i))
				c.Add(2)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	renderer.Wait()

	sequential := NewHistogram()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			sequential.Record(value(w, i))
		}
	}
	if got := c.Load(); got != 2*workers*perWorker {
		t.Errorf("counter = %d, want %d", got, 2*workers*perWorker)
	}
	if shared.Count() != workers*perWorker {
		t.Errorf("count = %d, want %d", shared.Count(), workers*perWorker)
	}
	if shared.Mean() != sequential.Mean() {
		t.Errorf("mean = %v, want %v", shared.Mean(), sequential.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := shared.Quantile(q), sequential.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestWriterFormat(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0.5e-6, 2e-6, 2e-3, 2e-3, 500} {
		h.Record(v)
	}
	reg := &Registry{}
	reg.Counter("test_events_total", "Events seen.").Add(3)

	var buf bytes.Buffer
	p := NewWriter(&buf)
	reg.Write(p)
	p.Family("test_up", "gauge", "")
	p.Sample("test_up", 1, "url", "http://a\"b\\c\n", "role", "primary")
	p.Family("test_seconds", "histogram", "Latency.")
	p.Histogram("test_seconds", h, "route", "GET /x")
	got := buf.String()

	for _, want := range []string{
		"# HELP test_events_total Events seen.\n# TYPE test_events_total counter\ntest_events_total 3\n",
		"# TYPE test_up gauge\n" + `test_up{url="http://a\"b\\c\n",role="primary"} 1` + "\n",
		"# HELP test_seconds Latency.\n# TYPE test_seconds histogram\n" + `test_seconds_bucket{route="GET /x",le="1e-06"} 1` + "\n",
		`test_seconds_bucket{route="GET /x",le="3.16e-06"} 2` + "\n",
		`test_seconds_bucket{route="GET /x",le="0.000993"} 2` + "\n",
		`test_seconds_bucket{route="GET /x",le="0.00314"} 4` + "\n",
		`test_seconds_bucket{route="GET /x",le="98.3"} 4` + "\n",
		`test_seconds_bucket{route="GET /x",le="+Inf"} 5` + "\n",
		`test_seconds_sum{route="GET /x"} 500.0040025` + "\n",
		`test_seconds_count{route="GET /x"} 5` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition lacks %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "# HELP test_up") {
		t.Error("a family without help text got a HELP line")
	}
	if n := strings.Count(got, "test_seconds_bucket"); n != histBuckets/bucketStride+2 {
		t.Errorf("%d bucket lines, want %d", n, histBuckets/bucketStride+2)
	}
}
