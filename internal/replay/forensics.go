package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"relaxreplay/internal/provenance"
	"relaxreplay/internal/replaylog"
)

// Divergence forensics: when replay stops matching the log, the bare
// error says *that* core C diverged at interval I — this file builds
// the structured report that says what the log demanded, what the
// re-executed program did instead, what the surrounding intervals
// looked like on every core, and (when the log carries a provenance
// sideband) why the diverged interval terminated during recording.

// AccessMismatch is the typed cause of an in-interval divergence: the
// log demanded one kind of access and the re-executed program
// presented another. Error() renders the same message the replayer has
// always produced; Expected/Actual carry the two sides for forensics.
type AccessMismatch struct {
	Expected string // what the log entry demanded
	Actual   string // what the re-executed program presented
	msg      string
}

func (m *AccessMismatch) Error() string { return m.msg }

// mismatch builds an AccessMismatch whose Error() is format/args —
// callers keep the historical message text exactly.
func mismatch(expected, actual, format string, args ...any) *AccessMismatch {
	return &AccessMismatch{Expected: expected, Actual: actual, msg: fmt.Sprintf(format, args...)}
}

// ContextInterval is one interval of the context window around a
// divergence: enough shape (size, entry mix, reorder count) to see
// what the neighborhood was doing without dumping entry payloads.
type ContextInterval struct {
	Core         int    `json:"core"`
	Seq          uint64 `json:"seq"`
	Timestamp    uint64 `json:"timestamp"`
	Instructions uint64 `json:"instructions"`
	Entries      int    `json:"entries"`
	Reordered    int    `json:"reordered"` // reordered/patched/dummy entries
}

// DivergenceReport is the structured forensic record of one replay
// divergence (or degradation).
type DivergenceReport struct {
	Core     int    `json:"core"`     // -1: damage report not tied to a core
	Interval int    `json:"interval"` // index in the core's stream; -1 for end-of-log
	Seq      uint64 `json:"seq"`
	EndOfLog bool   `json:"end_of_log,omitempty"`
	Cause    string `json:"cause"`
	Expected string `json:"expected,omitempty"`
	Actual   string `json:"actual,omitempty"`

	// Provenance is the recording-time provenance of the diverged
	// interval, when the log carries the sideband.
	Provenance *provenance.Record `json:"provenance,omitempty"`

	// Context is the window of preceding intervals across all cores, in
	// recorded total order (the order replay executes them).
	Context []ContextInterval `json:"context,omitempty"`
}

// JSON renders the report for rrreplay -forensics and friends.
func (r *DivergenceReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DefaultForensicsWindow is the number of preceding intervals per
// core in a report's context window.
const DefaultForensicsWindow = 4

// BuildDivergenceReport assembles the forensic record for a divergence
// at (core, interval, seq) in l (the log replay ran on — patched or
// not; provenance rides through patching). interval < 0 means the
// end-of-log case. cause is the divergence cause error.
func BuildDivergenceReport(l *replaylog.Log, core, interval int, seq uint64, cause error) *DivergenceReport {
	r := &DivergenceReport{Core: core, Interval: interval, Seq: seq, EndOfLog: interval < 0}
	if cause != nil {
		r.Cause = cause.Error()
		var mm *AccessMismatch
		if errors.As(cause, &mm) {
			r.Expected = mm.Expected
			r.Actual = mm.Actual
		}
	}
	if l == nil {
		return r
	}
	if interval >= 0 {
		r.Provenance = findProvenance(l.Provenance, core, seq)
	}
	r.Context = contextWindow(l, core, interval)
	return r
}

// DivergenceReports builds one report per degradation of a partial
// replay, in degradation order.
func DivergenceReports(l *replaylog.Log, degs []Degradation) []*DivergenceReport {
	var out []*DivergenceReport
	for _, d := range degs {
		out = append(out, BuildDivergenceReport(l, d.Core, d.Interval, d.Seq, d.Cause))
	}
	return out
}

// DamageReport synthesizes a report for a degradation that has no
// replay-side divergence to point at — the log itself was damaged
// (corrupt frames, unplaceable stores) and replay merely inherited the
// loss. Core and Interval are -1.
func DamageReport(detail string) *DivergenceReport {
	return &DivergenceReport{Core: -1, Interval: -1, Cause: detail}
}

// findProvenance locates the sideband record for (core, seq).
func findProvenance(prov []provenance.CoreProvenance, core int, seq uint64) *provenance.Record {
	for i := range prov {
		if prov[i].Core != core {
			continue
		}
		recs := prov[i].Records
		j := sort.Search(len(recs), func(k int) bool { return recs[k].Seq >= seq })
		if j < len(recs) && recs[j].Seq == seq {
			out := recs[j]
			return &out
		}
		return nil
	}
	return nil
}

// contextWindow collects up to DefaultForensicsWindow intervals per
// core preceding the divergence point, in recorded total order.
func contextWindow(l *replaylog.Log, core, interval int) []ContextInterval {
	var out []ContextInterval

	// The cut point: intervals strictly before the diverged one in the
	// replay total order (ts, core, idx). For the end-of-log case there
	// is no cut — the window is each core's recorded tail.
	var cutTs uint64
	cut := func(s *replaylog.CoreLog, i int) bool { return true }
	if interval >= 0 {
		if si := streamFor(l, core); si != nil && interval < len(si.Intervals) {
			cutTs = si.Intervals[interval].Timestamp
			cut = func(s *replaylog.CoreLog, i int) bool {
				iv := &s.Intervals[i]
				if iv.Timestamp != cutTs {
					return iv.Timestamp < cutTs
				}
				if s.Core != core {
					return s.Core < core
				}
				return i < interval
			}
		}
	}

	for si := range l.Streams {
		s := &l.Streams[si]
		// Last DefaultForensicsWindow intervals of this stream before
		// the cut.
		var picked []int
		for i := len(s.Intervals) - 1; i >= 0 && len(picked) < DefaultForensicsWindow; i-- {
			if s.Core == core && i == interval {
				continue
			}
			if cut(s, i) {
				picked = append(picked, i)
			}
		}
		for k := len(picked) - 1; k >= 0; k-- {
			out = append(out, summarize(s.Core, &s.Intervals[picked[k]]))
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Timestamp != out[j].Timestamp {
			return out[i].Timestamp < out[j].Timestamp
		}
		if out[i].Core != out[j].Core {
			return out[i].Core < out[j].Core
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

func streamFor(l *replaylog.Log, core int) *replaylog.CoreLog {
	for si := range l.Streams {
		if l.Streams[si].Core == core {
			return &l.Streams[si]
		}
	}
	return nil
}

func summarize(core int, iv *replaylog.Interval) ContextInterval {
	c := ContextInterval{
		Core:         core,
		Seq:          iv.Seq,
		Timestamp:    iv.Timestamp,
		Instructions: iv.Instructions(),
		Entries:      len(iv.Entries),
	}
	for _, e := range iv.Entries {
		switch e.Type {
		case replaylog.ReorderedLoad, replaylog.ReorderedStore, replaylog.ReorderedAtomic,
			replaylog.PatchedStore, replaylog.Dummy:
			c.Reordered++
		}
	}
	return c
}
