// Package telemetry is the measurement substrate of the simulator: a
// metrics registry (named counters, gauges, and log2-bucketed
// histograms, sharded per core so concurrent recordings under
// `rrbench -j` do not contend) plus a cycle-stamped structured event
// tracer that exports Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto.
//
// Overhead rules, in order of importance:
//
//  1. Disabled telemetry is free. Every metric handle and the tracer
//     are nil-safe: methods on a nil *Counter/*Gauge/*Histogram/*Tracer
//     return immediately, so instrumented code never branches on an
//     "enabled" flag — it simply holds nil handles. The nil check is a
//     single perfectly-predicted branch.
//  2. Enabled metrics never allocate on the hot path. Counter.Add,
//     Gauge.Set and Histogram.Observe are one or two atomic operations
//     on a pre-resolved, cache-line-padded shard slot. Handle
//     resolution (Registry.Counter etc.) happens once at setup.
//  3. Telemetry observes and never steers. No instrumented component
//     reads a telemetry value to make a decision, so simulation output
//     is byte-identical with telemetry on or off (tested).
//
// The registry is aggregated with Snapshot, rendered as a sorted text
// table (WriteText, via stats.Table) or JSON (WriteJSON).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"relaxreplay/internal/stats"
)

// DefaultSampleEvery is the default cycle-sampling period for the
// time-series counter tracks the machine emits into the tracer.
const DefaultSampleEvery = 1024

// Options configures a Telemetry instance.
type Options struct {
	// Shards is the number of independent slots per metric (rounded up
	// to a power of two; typically the simulated core count). Shard
	// indices passed to Add/Set/Observe are masked, so any non-negative
	// index is safe.
	Shards int
	// Trace enables the structured event tracer.
	Trace bool
	// SampleEvery is the cycle period of the sampled counter tracks
	// (ROB/MSHR occupancy, ring queue depth, CISN progress). 0 selects
	// DefaultSampleEvery.
	SampleEvery uint64
}

// Telemetry bundles the registry and (optionally) the tracer. A nil
// *Telemetry is the disabled state: Registry() and Tracer() return nil,
// and every metric handle obtained from them is a no-op.
type Telemetry struct {
	reg         *Registry
	tracer      *Tracer
	sampleEvery uint64
}

// New builds an enabled Telemetry instance.
func New(o Options) *Telemetry {
	t := &Telemetry{reg: NewRegistry(o.Shards), sampleEvery: o.SampleEvery}
	if t.sampleEvery == 0 {
		t.sampleEvery = DefaultSampleEvery
	}
	if o.Trace {
		t.tracer = NewTracer(o.Shards)
	}
	return t
}

// Registry returns the metrics registry (nil when t is nil).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the event tracer (nil when t is nil or tracing is
// disabled).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// SampleEvery returns the cycle-sampling period (0 when t is nil,
// meaning "never sample").
func (t *Telemetry) SampleEvery() uint64 {
	if t == nil {
		return 0
	}
	return t.sampleEvery
}

// pow2 rounds n up to a power of two, minimum 1.
func pow2(n int) int {
	if n < 1 {
		n = 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Registry holds the named metrics. Handle resolution takes a lock;
// the handles themselves are lock-free.
type Registry struct {
	shards int // power of two
	mu     sync.Mutex
	byName map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry builds a registry whose metrics have the given number of
// shards (rounded up to a power of two).
func NewRegistry(shards int) *Registry {
	return &Registry{shards: pow2(shards), byName: make(map[string]any)}
}

// Counter returns the named counter, creating it on first use. Safe
// for concurrent callers; nil-safe (a nil registry returns a nil
// handle, which is itself a no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered with a different type", name))
		}
		return c
	}
	c := &Counter{name: name, shards: make([]padCell, r.shards), mask: uint32(r.shards - 1)}
	r.byName[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered with a different type", name))
		}
		return g
	}
	g := &Gauge{name: name, shards: make([]gaugeCell, r.shards), mask: uint32(r.shards - 1)}
	r.byName[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Values are bucketed by log2: bucket b counts values in
// [2^(b-1), 2^b), bucket 0 counts zeros.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered with a different type", name))
		}
		return h
	}
	h := &Histogram{name: name, shards: make([]histCell, r.shards), mask: uint32(r.shards - 1)}
	r.byName[name] = h
	return h
}

// padCell is one cache-line-padded counter slot.
type padCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing, sharded counter.
type Counter struct {
	name   string
	shards []padCell
	mask   uint32
}

// Add adds n to the counter on the given shard (typically the core
// id). Nil-safe and allocation-free.
func (c *Counter) Add(shard int, n uint64) {
	if c == nil {
		return
	}
	c.shards[uint32(shard)&c.mask].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value returns the total over all shards.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for i := range c.shards {
		n += c.shards[i].v.Load()
	}
	return n
}

// gaugeCell holds the latest and the maximum value set on one shard.
type gaugeCell struct {
	last atomic.Uint64
	max  atomic.Uint64
	_    [48]byte
}

// Gauge is a sharded last-value (plus running maximum) metric.
type Gauge struct {
	name   string
	shards []gaugeCell
	mask   uint32
}

// Set records the gauge's current value on the given shard. Nil-safe
// and allocation-free.
func (g *Gauge) Set(shard int, v uint64) {
	if g == nil {
		return
	}
	cell := &g.shards[uint32(shard)&g.mask]
	cell.last.Store(v)
	for {
		old := cell.max.Load()
		if v <= old || cell.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the sum of the last values over all shards.
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	var n uint64
	for i := range g.shards {
		n += g.shards[i].last.Load()
	}
	return n
}

// Max returns the largest value ever set on any shard.
func (g *Gauge) Max() uint64 {
	if g == nil {
		return 0
	}
	var m uint64
	for i := range g.shards {
		if v := g.shards[i].max.Load(); v > m {
			m = v
		}
	}
	return m
}

// HistBuckets is the number of log2 buckets: bucket 0 holds zeros,
// bucket b>0 holds values in [2^(b-1), 2^b).
const HistBuckets = 65

// histCell is one shard of a histogram.
type histCell struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Histogram is a sharded fixed-log2-bucket histogram.
type Histogram struct {
	name   string
	shards []histCell
	mask   uint32
}

// Observe records one value on the given shard. Nil-safe and
// allocation-free: three atomic adds.
func (h *Histogram) Observe(shard int, v uint64) {
	if h == nil {
		return
	}
	cell := &h.shards[uint32(shard)&h.mask]
	cell.count.Add(1)
	cell.sum.Add(v)
	cell.buckets[bits.Len64(v)].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

// Sum returns the total of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.shards {
		n += h.shards[i].sum.Load()
	}
	return n
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// buckets returns the merged bucket counts.
func (h *Histogram) bucketTotals() [HistBuckets]uint64 {
	var out [HistBuckets]uint64
	if h == nil {
		return out
	}
	for i := range h.shards {
		for b := 0; b < HistBuckets; b++ {
			out[b] += h.shards[i].buckets[b].Load()
		}
	}
	return out
}

// quantile returns an upper bound for quantile q (0..1) from the log2
// buckets: the upper edge of the bucket containing the q-th sample.
func quantileUpper(buckets [HistBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var seen uint64
	for b := 0; b < HistBuckets; b++ {
		seen += buckets[b]
		if seen > want {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1 // upper edge of [2^(b-1), 2^b)
		}
	}
	return 1<<63 - 1
}

// BucketSnapshot is one non-empty histogram bucket in a snapshot.
type BucketSnapshot struct {
	// Le is the inclusive upper bound of the bucket (2^b - 1).
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// MetricSnapshot is the aggregated state of one metric.
type MetricSnapshot struct {
	Name  string `json:"name"`
	Type  string `json:"type"` // "counter", "gauge" or "histogram"
	Value uint64 `json:"value,omitempty"`
	Max   uint64 `json:"max,omitempty"` // gauges: largest value ever set

	Count   uint64           `json:"count,omitempty"`
	Sum     uint64           `json:"sum,omitempty"`
	Mean    float64          `json:"mean,omitempty"`
	P50     uint64           `json:"p50,omitempty"` // log2-bucket upper bound
	P99     uint64           `json:"p99,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot aggregates every registered metric, sorted by name. Safe to
// call concurrently with metric updates (values are read atomically;
// a snapshot taken mid-update is simply slightly stale).
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	metrics := make(map[string]any, len(r.byName))
	for n, m := range r.byName {
		names = append(names, n)
		metrics[n] = m
	}
	r.mu.Unlock()
	sort.Strings(names)

	out := make([]MetricSnapshot, 0, len(names))
	for _, n := range names {
		switch m := metrics[n].(type) {
		case *Counter:
			out = append(out, MetricSnapshot{Name: n, Type: "counter", Value: m.Value()})
		case *Gauge:
			out = append(out, MetricSnapshot{Name: n, Type: "gauge", Value: m.Value(), Max: m.Max()})
		case *Histogram:
			buckets := m.bucketTotals()
			var total uint64
			var bs []BucketSnapshot
			for b, c := range buckets {
				total += c
				if c > 0 {
					le := uint64(0)
					if b > 0 {
						le = 1<<uint(b) - 1
					}
					bs = append(bs, BucketSnapshot{Le: le, Count: c})
				}
			}
			snap := MetricSnapshot{
				Name: n, Type: "histogram",
				Count: total, Sum: m.Sum(),
				P50: quantileUpper(buckets, total, 0.50), P99: quantileUpper(buckets, total, 0.99),
				Buckets: bs,
			}
			if total > 0 {
				snap.Mean = float64(snap.Sum) / float64(total)
			}
			out = append(out, snap)
		}
	}
	return out
}

// WriteText renders the sorted metrics report as a fixed-width table.
func (r *Registry) WriteText(w io.Writer) error {
	t := stats.NewTable("telemetry metrics", "metric", "type", "value", "count", "mean", "p50", "p99", "max")
	for _, m := range r.Snapshot() {
		switch m.Type {
		case "histogram":
			t.AddRow(m.Name, m.Type, fmt.Sprint(m.Sum), fmt.Sprint(m.Count),
				stats.F(m.Mean, 2), fmt.Sprint(m.P50), fmt.Sprint(m.P99), "")
		case "gauge":
			t.AddRow(m.Name, m.Type, fmt.Sprint(m.Value), "", "", "", "", fmt.Sprint(m.Max))
		default:
			t.AddRow(m.Name, m.Type, fmt.Sprint(m.Value), "", "", "", "", "")
		}
	}
	_, err := io.WriteString(w, t.String())
	return err
}

// WriteJSON writes the sorted metrics report as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}{Metrics: r.Snapshot()})
}
