// Package obs is the one instrument set of the serving tier: lock-free
// counters, the latency histogram, and the Prometheus text writer that
// vdbserver and vdbcoord both count, time and render with.
// Recording never takes a lock, so instruments can sit on the request
// path of a microsecond-scale lookup.
package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
)

// Counter is a lock-free monotone counter. The zero value is ready.
type Counter struct {
	name, help string
	n          atomic.Int64
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Registry is an ordered set of named counters: the owner registers
// each once at construction, keeps the pointer for the hot path, and
// Write renders them all. Registration is not safe for concurrent use.
type Registry struct {
	counters []*Counter
}

// Counter registers and returns a counter exposed as the single-series
// family name.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.counters = append(r.counters, c)
	return c
}

// Write renders every registered counter in registration order.
func (r *Registry) Write(p *Writer) {
	for _, c := range r.counters {
		p.Family(c.name, "counter", c.help)
		p.Sample(c.name, float64(c.Load()))
	}
}

// Writer renders the Prometheus text exposition format (version 0.0.4):
// a Family line pair, then that family's samples. Write errors are
// dropped — the destination is an HTTP response nobody can repair.
type Writer struct {
	w io.Writer
}

// ContentType is the media type of what a Writer produces.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// NewWriter returns a Writer rendering to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Family starts a metric family of the given type (counter, gauge,
// histogram); an empty help omits the HELP line.
func (p *Writer) Family(name, typ, help string) {
	if help != "" {
		fmt.Fprintf(p.w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Sample writes one sample; labels are key, value pairs.
func (p *Writer) Sample(name string, v float64, labels ...string) {
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		name += sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`
		sep = ","
	}
	if sep == "," {
		name += "}"
	}
	fmt.Fprintf(p.w, "%s %g\n", name, v)
}

// bucketStride thins the exposition to every 17th bucket bound: the
// geometry grows 7% per bucket, so the emitted le edges step by √10 —
// two per decade, 1µs to ~100s — and each is a bucket boundary of the
// histogram (printed to three digits), so the cumulative counts carry
// no interpolation.
const bucketStride = 17

// Histogram writes h as one series of the histogram family name:
// cumulative _bucket samples at every bucketStride-th bound and +Inf,
// then _sum and _count. The +Inf bucket and _count are the same sum of
// bucket loads, so they agree even while h is being recorded into.
func (p *Writer) Histogram(name string, h *Histogram, labels ...string) {
	bucket := append(slices.Clip(labels), "le", "")
	le := len(bucket) - 1
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if i%bucketStride == 0 {
			bucket[le] = fmt.Sprintf("%.3g", histBound(i))
			p.Sample(name+"_bucket", float64(cum), bucket...)
		}
	}
	bucket[le] = "+Inf"
	p.Sample(name+"_bucket", float64(cum), bucket...)
	p.Sample(name+"_sum", load(&h.sum), labels...)
	p.Sample(name+"_count", float64(cum), labels...)
}
