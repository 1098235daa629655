// Package provenance captures the flight-recorder sideband of a
// RelaxReplay recording: one Record per terminated interval describing
// *why* the interval ended (a remote conflict, the size cap, or the
// end-of-run flush), which line and remote core caused a conflict
// termination, the reorder instants observed while the interval was
// open, and the TRAQ / Snoop-Table occupancy at the moment of
// termination.
//
// The stream is strictly observational: recording with or without a
// Collector produces byte-identical interval logs. It exists so that
// rrlog can attribute terminations and conflicts after the fact and so
// that replay-divergence forensics can show the provenance of the
// interval that diverged.
//
// All capture methods are nil-receiver no-ops, so the disabled path
// costs one pointer compare and zero allocations. Enabled, a warm
// recorder allocates only each record's own copy of its reorder
// instants (TestEnabledCaptureAllocs pins both).
package provenance

import (
	"fmt"
	"strconv"
)

// Cause says why an interval terminated.
type Cause uint8

const (
	// CauseUnknown marks a record whose termination cause was not
	// captured (e.g. decoded from a future-format frame).
	CauseUnknown Cause = iota
	// CauseConflict: a remote coherence transaction conflicted with the
	// interval's access signature (paper §3.2 interval termination).
	CauseConflict
	// CauseSize: the interval hit MaxIntervalInstrs (the chunk-size cap
	// that bounds CISN wraparound and replay granularity).
	CauseSize
	// CauseFinal: the end-of-run flush at Finalize terminated the last
	// open interval.
	CauseFinal
)

func (c Cause) String() string {
	switch c {
	case CauseConflict:
		return "conflict"
	case CauseSize:
		return "size"
	case CauseFinal:
		return "final"
	case CauseUnknown:
		return "unknown"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// MarshalJSON renders the cause as its name so forensics JSON is
// self-describing ("conflict", not 1).
func (c Cause) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(c.String())), nil
}

// UnmarshalJSON accepts the names MarshalJSON emits; anything else
// decodes as CauseUnknown rather than failing the whole report.
func (c *Cause) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return err
	}
	switch s {
	case "conflict":
		*c = CauseConflict
	case "size":
		*c = CauseSize
	case "final":
		*c = CauseFinal
	default:
		*c = CauseUnknown
	}
	return nil
}

// Reorder kinds, matching the recorder's reordered-access classes.
const (
	ReorderLoad uint8 = iota
	ReorderStore
	ReorderAtomic
)

// ReorderKindString names a reorder kind for display.
func ReorderKindString(k uint8) string {
	switch k {
	case ReorderLoad:
		return "load"
	case ReorderStore:
		return "store"
	case ReorderAtomic:
		return "atomic"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Reorder is one reorder instant: an access that retired out of
// program order and was counted Offset intervals after it performed.
type Reorder struct {
	Kind   uint8  `json:"kind"`
	Offset uint16 `json:"offset"`
	Cycle  uint64 `json:"cycle"`
}

// Record is the provenance of one terminated interval.
type Record struct {
	Seq   uint64 `json:"seq"`
	Cause Cause  `json:"cause"`
	Cycle uint64 `json:"cycle"` // machine cycle at termination

	// Occupancy at the moment of termination.
	TRAQOccupancy uint32 `json:"traq_occupancy"`
	SnoopNonzero  uint32 `json:"snoop_nonzero"` // nonzero Snoop-Table counters

	// Conflict details (meaningful when Cause == CauseConflict).
	ConflictLine  uint64 `json:"conflict_line,omitempty"`
	ConflictWrite bool   `json:"conflict_write,omitempty"`
	RemoteCore    int32  `json:"remote_core"` // requesting core; -1 unknown

	// Reorders are the reorder instants observed while the interval was
	// open, in observation order.
	Reorders []Reorder `json:"reorders,omitempty"`
}

// CoreProvenance is one core's provenance stream, in interval order.
type CoreProvenance struct {
	Core    int
	Records []Record
}

// Collector gathers provenance across the cores of one recording. Use
// NewCollector, hand it to the recorder config, and Snapshot after the
// run. A nil *Collector (and the nil *CoreRecorder it hands out)
// disables capture everywhere.
type Collector struct {
	cores []*CoreRecorder
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Core returns the recorder for one core, creating it on first use.
// Safe only before the recording's concurrent phase hands the
// recorders out (NewRecorder time).
func (c *Collector) Core(core int) *CoreRecorder {
	if c == nil {
		return nil
	}
	for core >= len(c.cores) {
		c.cores = append(c.cores, nil)
	}
	if c.cores[core] == nil {
		c.cores[core] = &CoreRecorder{core: core, pendRemote: -1}
	}
	return c.cores[core]
}

// Snapshot returns the captured streams in core order, skipping cores
// that recorded nothing. The returned slices alias the collector's
// buffers; take the snapshot after recording finishes.
func (c *Collector) Snapshot() []CoreProvenance {
	if c == nil {
		return nil
	}
	var out []CoreProvenance
	for _, cr := range c.cores {
		if cr == nil || len(cr.recs) == 0 {
			continue
		}
		out = append(out, CoreProvenance{Core: cr.core, Records: cr.recs})
	}
	return out
}

// CoreRecorder captures one core's provenance. All Note* methods are
// nil-receiver no-ops; the recorder calls them unconditionally.
type CoreRecorder struct {
	core int
	recs []Record

	// cur is the scratch buffer of reorder instants for the interval
	// currently open; NoteTerminate copies it out and resets it.
	cur []Reorder

	// Pending conflict details, staged by NoteConflict just before the
	// recorder terminates the interval, consumed by NoteTerminate.
	pendLine   uint64
	pendWrite  bool
	pendRemote int32
}

// NoteConflict stages the conflicting line, access kind and requesting
// core for the termination that is about to follow. remote is -1 when
// the requester is unknown.
func (c *CoreRecorder) NoteConflict(line uint64, isWrite bool, remote int) {
	if c == nil {
		return
	}
	c.pendLine = line
	c.pendWrite = isWrite
	c.pendRemote = int32(remote)
}

// NoteReorder records one reorder instant in the open interval.
func (c *CoreRecorder) NoteReorder(kind uint8, offset uint16, cycle uint64) {
	if c == nil {
		return
	}
	c.cur = append(c.cur, Reorder{Kind: kind, Offset: offset, Cycle: cycle})
}

// NoteTerminate closes the open interval: it appends a Record carrying
// the cause, occupancy and any staged conflict details, attaches the
// accumulated reorder instants, and resets the per-interval state.
func (c *CoreRecorder) NoteTerminate(seq uint64, cause Cause, traq, snoopNonzero int, cycle uint64) {
	if c == nil {
		return
	}
	r := Record{
		Seq:           seq,
		Cause:         cause,
		Cycle:         cycle,
		TRAQOccupancy: uint32(traq),
		SnoopNonzero:  uint32(snoopNonzero),
		ConflictLine:  c.pendLine,
		ConflictWrite: c.pendWrite,
		RemoteCore:    c.pendRemote,
	}
	if len(c.cur) > 0 {
		r.Reorders = c.takeReorders()
	}
	c.recs = append(c.recs, r)
	c.cur = c.cur[:0]
	c.pendLine = 0
	c.pendWrite = false
	c.pendRemote = -1
}

// takeReorders copies the scratch instants into a right-sized slice
// owned by the record being closed.
func (c *CoreRecorder) takeReorders() []Reorder {
	out := make([]Reorder, len(c.cur))
	copy(out, c.cur)
	return out
}
