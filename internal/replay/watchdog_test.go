package replay

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/replaylog"
)

// accountingLog mixes every patched entry type over three cores, in
// this replay order: core 0 runs a block, a ReorderedLoad, a block, a
// Dummy and a PatchedStore (ts 10); core 1 runs 10 instructions of a
// store loop (ts 20); core 0 runs a block that overruns HALT (ts 22);
// core 2 fails on IN past its one input (ts 25); core 1 runs its last
// 14 instructions to HALT (ts 40).
func accountingLog() (*replaylog.Log, []isa.Program) {
	b := isa.NewBuilder("loop")
	b.Li(isa.R(3), 0).Li(isa.R(4), 5).Li(isa.R(10), 0x200)
	b.Label("l")
	b.St(isa.R(3), isa.R(10), 0)
	b.Addi(isa.R(3), isa.R(3), 1)
	b.Addi(isa.R(10), isa.R(10), 8)
	b.Bne(isa.R(3), isa.R(4), "l")
	b.Halt()
	loop := b.MustBuild()
	b = isa.NewBuilder("in")
	b.In(isa.R(3)).In(isa.R(4)).Halt()
	in := b.MustBuild()

	blk := func(n uint32) replaylog.Entry { return replaylog.Entry{Type: replaylog.InorderBlock, Size: n} }
	l := &replaylog.Log{
		Cores:   3,
		Patched: true,
		Streams: []replaylog.CoreLog{
			{Core: 0, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 10, Entries: []replaylog.Entry{
					blk(1),
					{Type: replaylog.ReorderedLoad, Value: 99},
					blk(1),
					{Type: replaylog.Dummy},
					{Type: replaylog.PatchedStore, Addr: 0x108, Value: 77},
				}},
				{Seq: 1, CISN: 1, Timestamp: 22, Entries: []replaylog.Entry{blk(4)}},
			}},
			{Core: 1, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 20, Entries: []replaylog.Entry{blk(10)}},
				{Seq: 1, CISN: 1, Timestamp: 40, Entries: []replaylog.Entry{blk(14)}},
			}},
			{Core: 2, Intervals: []replaylog.Interval{
				{Seq: 0, Timestamp: 25, Entries: []replaylog.Entry{blk(3)}},
			}},
		},
		Inputs: [][]uint64{nil, nil, {7}},
	}
	return l, []isa.Program{prog(), loop, in}
}

// walkOutcome is everything the watchdog accounting decides: how the
// run ended, the steps it charged, and where every thread stopped.
type walkOutcome struct {
	kind      string // "ok", "stalled" or "diverged"
	steps     uint64
	core      int // stalled or diverged core
	interval  int
	done      []int // stalled only
	halted    []bool
	degraded  [][2]int // (core, interval) per degradation
	pc        []int
	instret   []uint64
	regs      [][isa.NumRegs]uint64
	finalMem  map[uint64]uint64 // ok only
	lastCause string
}

// referenceWalk replays l one instruction at a time, charging and
// checking the step budget before each instruction and each emulated
// entry. It is the replayer's loop as it was before blocks ran in one
// StepN call, kept here as the accounting reference.
func referenceWalk(l *replaylog.Log, progs []isa.Program, budget uint64, partial bool) walkOutcome {
	mem := isa.NewFlatMemory()
	var threads []*isa.Thread
	for c := range progs {
		th := &isa.Thread{Prog: progs[c], Inputs: l.Inputs[c]}
		th.SetReg(isa.Reg(1), uint64(c))
		th.SetReg(isa.Reg(2), uint64(l.Cores))
		threads = append(threads, th)
	}
	type ref struct {
		core, idx int
		ts        uint64
	}
	var order []ref
	for _, s := range l.Streams {
		for i := range s.Intervals {
			order = append(order, ref{s.Core, i, s.Intervals[i].Timestamp})
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].ts != order[j].ts {
			return order[i].ts < order[j].ts
		}
		if order[i].core != order[j].core {
			return order[i].core < order[j].core
		}
		return order[i].idx < order[j].idx
	})

	var steps uint64
	interval := func(th *isa.Thread, iv *replaylog.Interval) error {
		for _, e := range iv.Entries {
			if e.Type != replaylog.InorderBlock {
				if steps++; steps > budget {
					return errStall
				}
			}
			switch e.Type {
			case replaylog.InorderBlock:
				for i := uint32(0); i < e.Size; i++ {
					if steps++; steps > budget {
						return errStall
					}
					if th.Halted {
						return fmt.Errorf("block overruns HALT after %d of %d instructions", i, e.Size)
					}
					if err := th.Step(mem); err != nil {
						return err
					}
				}
			case replaylog.ReorderedLoad, replaylog.Dummy:
				if th.Halted || th.PC >= len(th.Prog.Code) {
					return fmt.Errorf("entry past the program")
				}
				ins := th.Prog.Code[th.PC]
				if e.Type == replaylog.ReorderedLoad {
					if !ins.IsLoad() {
						return fmt.Errorf("ReorderedLoad entry at non-load instruction %v", ins)
					}
					th.SetReg(ins.Rd, e.Value)
				} else if !ins.IsStore() {
					return fmt.Errorf("Dummy entry at non-store instruction %v", ins)
				}
				th.PC++
				th.Instret++
			case replaylog.PatchedStore:
				mem.Store(e.Addr, e.Value)
			}
		}
		return nil
	}

	out := walkOutcome{kind: "ok"}
	done := make([]int, l.Cores)
	abandoned := make([]bool, l.Cores)
	finish := func() walkOutcome {
		out.steps = steps
		for _, th := range threads {
			out.pc = append(out.pc, th.PC)
			out.instret = append(out.instret, th.Instret)
			out.regs = append(out.regs, th.Regs)
		}
		return out
	}
	for _, o := range order {
		if abandoned[o.core] {
			continue
		}
		err := interval(threads[o.core], &l.Streams[o.core].Intervals[o.idx])
		switch {
		case errors.Is(err, errStall):
			// A stall returns no Result, so no degradations either.
			out = walkOutcome{kind: "stalled", core: o.core, interval: o.idx, done: done}
			for _, th := range threads {
				out.halted = append(out.halted, th.Halted)
			}
			return finish()
		case err != nil && partial:
			abandoned[o.core] = true
			out.degraded = append(out.degraded, [2]int{o.core, o.idx})
			out.lastCause = err.Error()
			continue
		case err != nil:
			out.kind, out.core, out.interval, out.lastCause = "diverged", o.core, o.idx, err.Error()
			return finish()
		}
		done[o.core]++
	}
	for c, th := range threads {
		if !th.Halted && !abandoned[c] {
			if !partial {
				out.kind, out.core, out.interval = "diverged", c, -1
				out.lastCause = fmt.Sprintf("did not reach HALT (pc=%d)", th.PC)
				return finish()
			}
			out.degraded = append(out.degraded, [2]int{c, -1})
		}
	}
	out.finalMem = mem.Snapshot()
	return finish()
}

// replayOutcome runs the replayer and reads back the same facts.
func replayOutcome(t *testing.T, l *replaylog.Log, progs []isa.Program, budget uint64, partial bool) walkOutcome {
	t.Helper()
	cfg := DefaultConfig()
	cfg.WatchdogSteps = budget
	cfg.AllowPartial = partial
	r, err := New(cfg, l, progs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	out := walkOutcome{kind: "ok", steps: r.steps}
	var stall *ErrStalled
	var div *ErrDiverged
	switch {
	case errors.As(err, &stall):
		rep := stall.Report
		if rep.Steps != r.steps || rep.Budget != budget {
			t.Fatalf("budget %d: report says %d of %d steps, replayer charged %d", budget, rep.Steps, rep.Budget, r.steps)
		}
		out.kind, out.core, out.interval, out.done, out.halted = "stalled", rep.Core, rep.Interval, rep.Done, rep.Halted
	case errors.As(err, &div):
		out.kind, out.core, out.interval, out.lastCause = "diverged", div.Core, div.Interval, fmt.Sprint(div.Cause)
	case err != nil:
		t.Fatalf("budget %d: untyped error %v", budget, err)
	default:
		for _, d := range res.Degradations {
			out.degraded = append(out.degraded, [2]int{d.Core, d.Interval})
			if d.Interval >= 0 {
				out.lastCause = d.Cause.Error()
			}
		}
		out.finalMem = res.FinalMemory
	}
	for _, th := range r.threads {
		out.pc = append(out.pc, th.PC)
		out.instret = append(out.instret, th.Instret)
		out.regs = append(out.regs, th.Regs)
	}
	return out
}

// TestWatchdogAccountingExact runs accountingLog at every budget from
// one step up to past its full need, strict and partial, and requires
// the outcome the per-instruction reference walk gives: the same end,
// the same steps charged, the same stall report, and every thread at
// the same PC, Instret and registers.
func TestWatchdogAccountingExact(t *testing.T) {
	l, progs := accountingLog()
	for _, partial := range []bool{false, true} {
		full := referenceWalk(l, progs, math.MaxUint64, partial)
		if full.kind == "stalled" {
			t.Fatalf("partial=%v: reference stalls without a budget", partial)
		}
		kinds := map[string]int{}
		for budget := uint64(1); budget <= full.steps+1; budget++ {
			want := referenceWalk(l, progs, budget, partial)
			got := replayOutcome(t, l, progs, budget, partial)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partial=%v budget=%d:\n got  %+v\n want %+v", partial, budget, got, want)
			}
			if got.kind == "stalled" && got.steps != budget+1 {
				t.Fatalf("partial=%v budget=%d: stall charged %d steps, want budget+1", partial, budget, got.steps)
			}
			kinds[got.kind]++
		}
		// Both endings must be reached, and under AllowPartial both
		// failure paths (HALT overrun, failing IN) are degradations.
		if kinds["stalled"] == 0 || kinds["stalled"] == int(full.steps)+1 {
			t.Fatalf("partial=%v: outcomes %v never leave or never reach the watchdog", partial, kinds)
		}
		if partial && (full.kind != "ok" || len(full.degraded) != 2) {
			t.Fatalf("partial run: %+v, want two degradations", full)
		}
		if !partial && full.kind != "diverged" {
			t.Fatalf("strict run: %+v, want a divergence", full)
		}
	}
}

// TestReplayHostileAddressesBounded replays 4,096 PatchedStores 1 MiB
// apart plus one at the top of the address space. Each touches its own
// page, so this bounds what a log-controlled address stream can make
// the paged memory allocate.
func TestReplayHostileAddressesBounded(t *testing.T) {
	const stores = 4096
	var entries []replaylog.Entry
	for i := uint64(0); i < stores; i++ {
		entries = append(entries, replaylog.Entry{Type: replaylog.PatchedStore, Addr: i << 20, Value: i + 1})
	}
	entries = append(entries,
		replaylog.Entry{Type: replaylog.PatchedStore, Addr: math.MaxUint64 - 7, Value: 9},
		replaylog.Entry{Type: replaylog.InorderBlock, Size: 1})
	b := isa.NewBuilder("halt")
	b.Halt()
	l := patchedLog(entries...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := New(DefaultConfig(), l, []isa.Program{b.MustBuild()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalMemory) != stores+1 || res.FinalMemory[math.MaxUint64-7] != 9 || res.FinalMemory[(stores-1)<<20] != stores {
		t.Fatalf("final memory holds %d words", len(res.FinalMemory))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("replay allocated %d bytes for %d sparse stores, budget 4 MiB", alloc, stores+1)
	}
}
