package obs

import (
	"math"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10000; i++ {
		h.Record(float64(i) * 1e-5) // uniform 10µs .. 100ms
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct {
		q, want float64
	}{{0.50, 0.05}, {0.90, 0.09}, {0.99, 0.099}} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > histGrowth-1 {
			t.Errorf("Quantile(%v) = %v, want %v ±%v%%", tc.q, got, tc.want, (histGrowth-1)*100)
		}
	}
	if got := h.Quantile(0); got != load(&h.min) {
		t.Errorf("Quantile(0) = %v, want min %v", got, load(&h.min))
	}
	if got := h.Quantile(1); got != load(&h.max) {
		t.Errorf("Quantile(1) = %v, want max %v", got, load(&h.max))
	}
	if mean := h.Mean(); math.Abs(mean-0.050005) > 1e-9 {
		t.Errorf("Mean = %v", mean)
	}
}
