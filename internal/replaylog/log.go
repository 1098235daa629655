// Package replaylog defines RelaxReplay's interval log: the entry
// types of paper Figure 6(c), per-core interval streams ordered by the
// QuickRec-style global timestamp, the recorded input log, the
// off-line "patching" pass that moves reordered stores back to the
// interval where they performed (paper §3.3.2), and a binary
// serialization.
//
// Log sizes are accounted in uncompressed bits using the paper's field
// widths, which is what Figure 11 reports.
//
//rrlint:deterministic
package replaylog

import (
	"fmt"

	"relaxreplay/internal/provenance"
)

// EntryType discriminates log record entries.
type EntryType uint8

const (
	// InorderBlock: a run of Size consecutive instructions (memory and
	// non-memory alike) to be replayed natively in program order.
	InorderBlock EntryType = iota
	// ReorderedLoad: the next instruction in program order is a load
	// whose recorded Value must be injected instead of accessing memory.
	ReorderedLoad
	// ReorderedStore: a store counted here but performed Offset
	// intervals earlier; patching moves it there. Pre-patch only.
	ReorderedStore
	// ReorderedAtomic: an atomic RMW counted here but performed Offset
	// intervals earlier. Value is the loaded (old) value, StoreValue
	// the value written (if DidWrite). Pre-patch only; patching splits
	// it into a PatchedStore plus a ReorderedLoad-like entry. This is
	// an extension over the paper, which does not discuss atomics.
	ReorderedAtomic
	// PatchedStore: a reordered store moved (by patching) to the end
	// of the interval where it performed. The replayer applies the
	// write without advancing the program counter. Post-patch only.
	PatchedStore
	// Dummy: placeholder left at the counting position of a patched
	// store; the replayer skips one instruction. Post-patch only.
	Dummy
	// IntervalFrame terminates an interval record, carrying the CISN
	// and the global timestamp used to order intervals across cores.
	IntervalFrame
)

func (t EntryType) String() string {
	switch t {
	case InorderBlock:
		return "InorderBlock"
	case ReorderedLoad:
		return "ReorderedLoad"
	case ReorderedStore:
		return "ReorderedStore"
	case ReorderedAtomic:
		return "ReorderedAtomic"
	case PatchedStore:
		return "PatchedStore"
	case Dummy:
		return "Dummy"
	case IntervalFrame:
		return "IntervalFrame"
	}
	return fmt.Sprintf("EntryType(%d)", uint8(t))
}

// Entry is one log record entry. Fields are used per type.
type Entry struct {
	Type EntryType

	Size       uint32 // InorderBlock: instruction count
	Value      uint64 // ReorderedLoad/Atomic: loaded value; (Patched)Store: stored value
	Addr       uint64 // (Patched)Store / Atomic: byte address
	StoreValue uint64 // Atomic: value written
	DidWrite   bool   // Atomic: whether the write took effect (CAS)
	Offset     uint16 // Store/Atomic: intervals since the perform
}

// Paper field widths in bits (Figure 6(c) plus our atomic extension).
const (
	typeBits  = 3 // the paper uses 2; we carry one more type
	sizeBits  = 32
	valueBits = 64
	addrBits  = 64
	offBits   = 16
	cisnBits  = 16
	tsBits    = 64
)

// Bits returns the uncompressed size of the entry in bits, as
// accounted by Figure 11.
func (e Entry) Bits() int {
	switch e.Type {
	case InorderBlock:
		return typeBits + sizeBits
	case ReorderedLoad:
		return typeBits + valueBits
	case ReorderedStore, PatchedStore:
		return typeBits + addrBits + valueBits + offBits
	case ReorderedAtomic:
		return typeBits + addrBits + 2*valueBits + offBits + 1
	case Dummy:
		return typeBits
	case IntervalFrame:
		return typeBits + cisnBits + tsBits
	}
	return 0
}

// Pred names a predecessor interval on another core: the dependence
// edges a Cyrus-style orderer records to enable parallel replay. The
// QuickRec total order (Timestamp) already subsumes them for
// sequential replay; they exist for the parallel-replay estimate.
type Pred struct {
	Core int
	Seq  uint64
}

// Interval is one interval's record: its entries followed (logically)
// by the IntervalFrame information.
type Interval struct {
	Seq       uint64 // full-precision interval sequence number
	CISN      uint16 // the logged 16-bit CISN (Seq mod 2^16)
	Timestamp uint64 // global cycle at termination; total order key
	Entries   []Entry
	Preds     []Pred // cross-core dependence edges (parallel replay)
}

// Instructions returns the number of instructions replayed by this
// interval (patched stores replay no instruction).
func (iv *Interval) Instructions() uint64 {
	var n uint64
	for _, e := range iv.Entries {
		switch e.Type {
		case InorderBlock:
			n += uint64(e.Size)
		case ReorderedLoad, ReorderedAtomic, ReorderedStore, Dummy:
			n++
		}
	}
	return n
}

// CoreLog is the interval stream of one core.
type CoreLog struct {
	Core      int
	Intervals []Interval
}

// Log is a complete RelaxReplay recording.
type Log struct {
	Cores   int
	Variant string // "base" or "opt" (informational; replay is oblivious)
	Patched bool

	Streams []CoreLog
	// Inputs is the recorded input log (per core), replayed into IN.
	Inputs [][]uint64

	// Provenance is the optional flight-recorder sideband: per-core
	// interval termination causes, conflict lines, reorder instants and
	// occupancy snapshots, captured when recording ran with a
	// provenance collector. Purely observational — replay ignores it —
	// and persisted only by EncodeV3 (FrameProvenance frames); v1/v2
	// encoders drop it, keeping those formats byte-identical to
	// pre-provenance recordings.
	Provenance []provenance.CoreProvenance
}

// SizeBits returns the total uncompressed log size in bits.
func (l *Log) SizeBits() int {
	n := 0
	for _, s := range l.Streams {
		for _, iv := range s.Intervals {
			n += int(typeBits + cisnBits + tsBits) // the IntervalFrame
			for _, e := range iv.Entries {
				n += e.Bits()
			}
		}
	}
	return n
}

// CountEntries returns the total number of entries of the given type.
func (l *Log) CountEntries(t EntryType) int {
	n := 0
	for _, s := range l.Streams {
		for _, iv := range s.Intervals {
			for _, e := range iv.Entries {
				if e.Type == t {
					n++
				}
			}
		}
	}
	return n
}

// Instructions returns the total instruction count across all cores.
func (l *Log) Instructions() uint64 {
	var n uint64
	for _, s := range l.Streams {
		for i := range s.Intervals {
			n += s.Intervals[i].Instructions()
		}
	}
	return n
}

// Patch performs the off-line patching pass (paper §3.3.2): every
// ReorderedStore (and the store half of every ReorderedAtomic) is
// moved to the end of the interval that is Offset positions earlier —
// the interval where the store performed — leaving a Dummy (or a
// ReorderedLoad carrying the atomic's loaded value) at the counting
// position. The result is a new Log ready for replay; the input is not
// modified.
//
// Targets are found by sequence number. A store whose target interval
// is not in the log fails the pass with an error naming the core, the
// counting interval and the missing sequence number.
func (l *Log) Patch() (*Log, error) {
	out, _, err := l.patch(true)
	return out, err
}

// PatchPartial is Patch for logs that lost intervals (a robust decode
// of a damaged stream). A store whose target interval was lost cannot
// be placed anywhere; it is dropped (its counting-position placeholder
// is still written) and counted in the returned total. PatchPartial
// never fails on gaps — only on a log that is already patched. On a
// log Patch accepts, the two return equal logs.
func (l *Log) PatchPartial() (*Log, int, error) {
	return l.patch(false)
}

// patch is the one patching pass behind Patch and PatchPartial; strict
// turns every dropped store into an error. Each stream is walked three
// times: to count the stores each interval receives, to copy the
// entries into one backing array with room for them, and to rewrite
// the counting positions and place the stores.
func (l *Log) patch(strict bool) (*Log, int, error) {
	if l.Patched {
		return nil, 0, fmt.Errorf("replaylog: log already patched")
	}
	out := &Log{
		Cores:      l.Cores,
		Variant:    l.Variant,
		Patched:    true,
		Streams:    make([]CoreLog, len(l.Streams)),
		Inputs:     l.Inputs,
		Provenance: l.Provenance,
	}
	longest := 0
	for _, s := range l.Streams {
		longest = max(longest, len(s.Intervals))
	}
	incoming := make([]int, longest) // stores each interval receives
	dropped := 0
	for si, s := range l.Streams {
		ivs := s.Intervals
		idx := seqIndex{ivs: ivs}
		in := incoming[:len(ivs)]
		clear(in)
		total := 0
		for i := range ivs {
			total += len(ivs[i].Entries)
			for _, e := range ivs[i].Entries {
				if !movesStore(e) {
					continue
				}
				if t, ok := idx.target(i, e.Offset); ok {
					in[t]++
					total++
					continue
				}
				if strict {
					return nil, 0, missingTarget(s.Core, ivs[i].Seq, e.Offset)
				}
				dropped++
			}
		}
		backing := make([]Entry, total)
		nivs := make([]Interval, len(ivs))
		off := 0
		for i, iv := range ivs {
			nivs[i] = Interval{Seq: iv.Seq, CISN: iv.CISN, Timestamp: iv.Timestamp, Preds: iv.Preds}
			n := len(iv.Entries)
			if n+in[i] == 0 {
				continue // Entries stays nil
			}
			nivs[i].Entries = backing[off : off+n : off+n+in[i]]
			copy(nivs[i].Entries, iv.Entries)
			off += n + in[i]
		}
		for i, iv := range ivs {
			for j, e := range iv.Entries {
				switch e.Type {
				case ReorderedStore:
					nivs[i].Entries[j] = Entry{Type: Dummy}
				case ReorderedAtomic:
					// The loaded value replays here. The write, if it
					// took effect (a failed CAS wrote nothing), moves.
					nivs[i].Entries[j] = Entry{Type: ReorderedLoad, Value: e.Value}
				}
				if !movesStore(e) {
					continue
				}
				if t, ok := idx.target(i, e.Offset); ok {
					// Within capacity: this writes into backing.
					nivs[t].Entries = append(nivs[t].Entries,
						Entry{Type: PatchedStore, Addr: e.Addr, Value: valueForPatch(e), Offset: e.Offset})
				}
			}
		}
		out.Streams[si] = CoreLog{Core: s.Core, Intervals: nivs}
	}
	return out, dropped, nil
}

// movesStore reports whether patching moves a store out of entry e: a
// ReorderedStore, or a ReorderedAtomic whose write took effect.
func movesStore(e Entry) bool {
	return e.Type == ReorderedStore || e.Type == ReorderedAtomic && e.DidWrite
}

// missingTarget is strict Patch's error for a store whose perform
// interval is not in the log.
func missingTarget(core int, seq uint64, off uint16) error {
	if uint64(off) > seq {
		return fmt.Errorf("replaylog: core %d interval %d: offset %d reaches before the log", core, seq, off)
	}
	return fmt.Errorf("replaylog: core %d interval %d: offset %d targets interval %d, which is missing", core, seq, off, seq-uint64(off))
}

// seqIndex finds a stream's intervals by sequence number. In a stream
// without gaps the target is Offset positions back, so only a stream
// with a gap, or one built out of order, pays for the map, on its first
// miss.
type seqIndex struct {
	ivs   []Interval
	bySeq map[uint64]int // the last interval with each Seq
}

// target returns the index of the interval where a store counted in
// interval i with the given offset performed, or false if the log does
// not have it.
func (x *seqIndex) target(i int, off uint16) (int, bool) {
	seq := x.ivs[i].Seq
	// Guard before subtracting: a wrapped seq-off could alias a real
	// (huge) sequence number and graft the store onto it.
	if uint64(off) > seq {
		return 0, false
	}
	want := seq - uint64(off)
	if t := i - int(off); t >= 0 && x.ivs[t].Seq == want {
		return t, true
	}
	if x.bySeq == nil {
		x.bySeq = make(map[uint64]int, len(x.ivs))
		for k := range x.ivs {
			x.bySeq[x.ivs[k].Seq] = k
		}
	}
	t, ok := x.bySeq[want]
	return t, ok
}

func valueForPatch(e Entry) uint64 {
	if e.Type == ReorderedAtomic {
		return e.StoreValue
	}
	return e.Value
}

// Validate checks structural well-formedness: monotone timestamps per
// core, consistent CISNs, no post-patch types in an unpatched log and
// vice versa.
func (l *Log) Validate() error {
	for _, s := range l.Streams {
		var lastTS uint64
		for i, iv := range s.Intervals {
			if iv.Timestamp < lastTS {
				return fmt.Errorf("replaylog: core %d interval %d: timestamp %d < %d", s.Core, i, iv.Timestamp, lastTS)
			}
			lastTS = iv.Timestamp
			if iv.CISN != uint16(iv.Seq) {
				return fmt.Errorf("replaylog: core %d interval %d: CISN %d != Seq %d mod 2^16", s.Core, i, iv.CISN, iv.Seq)
			}
			for _, e := range iv.Entries {
				switch e.Type {
				case ReorderedStore, ReorderedAtomic:
					if l.Patched {
						return fmt.Errorf("replaylog: core %d: %v entry in patched log", s.Core, e.Type)
					}
					if uint64(e.Offset) > iv.Seq {
						return fmt.Errorf("replaylog: core %d: offset %d exceeds interval seq %d", s.Core, e.Offset, iv.Seq)
					}
				case PatchedStore, Dummy:
					if !l.Patched {
						return fmt.Errorf("replaylog: core %d: %v entry in unpatched log", s.Core, e.Type)
					}
				case InorderBlock:
					if e.Size == 0 {
						return fmt.Errorf("replaylog: core %d: empty InorderBlock", s.Core)
					}
				case IntervalFrame:
					return fmt.Errorf("replaylog: core %d: explicit IntervalFrame entry", s.Core)
				}
			}
		}
	}
	return nil
}
