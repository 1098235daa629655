package machine

import (
	"errors"
	"testing"

	"relaxreplay/internal/isa"
)

// inAfterMulProg builds a workload that fails late: a MUL chain keeps
// the single core busy, and the IN behind it has no input stream, so
// the moment it reaches the ROB head the core raises
// isa.ErrOutOfInput. The chain length and MUL latency move the error
// cycle.
func inAfterMulProg(chain int) isa.Program {
	b := isa.NewBuilder("in-after-mul")
	b.Li(isa.R(3), 7)
	for i := 0; i < chain; i++ {
		b.Mul(isa.R(3), isa.R(3), isa.R(3))
	}
	b.In(isa.R(4))
	b.Halt()
	return b.MustBuild()
}

// TestCoreErrorWinsAtMaxCycles pins the run loop's budget boundary: a
// core error raised on the last budgeted cycle must be reported as
// that error, at its true cycle, never masked as a *StallError.
func TestCoreErrorWinsAtMaxCycles(t *testing.T) {
	for chain := 1; chain <= 3; chain++ {
		prog := inAfterMulProg(chain)
		for _, lat := range []uint64{1, 3, 12, 30} {
			build := func(maxCycles uint64) *Machine {
				cfg := DefaultConfig(1)
				cfg.CPU.MulLat = lat
				if maxCycles != 0 {
					cfg.MaxCycles = maxCycles
				}
				return New(cfg, []isa.Program{prog}, nil)
			}

			free := build(0)
			if err := free.Run(); !errors.Is(err, isa.ErrOutOfInput) {
				t.Fatalf("chain=%d lat=%d: got %v, want ErrOutOfInput", chain, lat, err)
			}
			errCycle := free.Cycle()

			pinned := build(errCycle)
			err := pinned.Run()
			var stall *StallError
			if errors.As(err, &stall) {
				t.Errorf("chain=%d lat=%d: core error at the MaxCycles boundary masked as %v", chain, lat, err)
			} else if !errors.Is(err, isa.ErrOutOfInput) {
				t.Errorf("chain=%d lat=%d: pinned run: got %v, want ErrOutOfInput", chain, lat, err)
			}
			if pinned.Cycle() != errCycle {
				t.Errorf("chain=%d lat=%d: pinned run reported at cycle %d, want %d", chain, lat, pinned.Cycle(), errCycle)
			}
		}
	}
}

// TestStallReport: a deadlocked run ends with a *StallError carrying
// the cycle budget and one snapshot per core.
func TestStallReport(t *testing.T) {
	// A spin on a memory word nobody writes: livelock by construction.
	b := isa.NewBuilder("spin")
	b.Li(isa.R(3), 0x100)
	b.Label("loop")
	b.Ld(isa.R(4), isa.R(3), 0)
	b.Beq(isa.R(4), isa.R(0), "loop")
	b.Halt()
	prog := b.MustBuild()
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 5_000
	m := New(cfg, []isa.Program{prog, prog}, nil)
	err := m.Run()
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("got %v, want *StallError", err)
	}
	if stall.Cycles != cfg.MaxCycles || m.Cycle() != cfg.MaxCycles {
		t.Errorf("stall at %d (machine cycle %d), want %d", stall.Cycles, m.Cycle(), cfg.MaxCycles)
	}
	if len(stall.Cores) != cfg.Cores {
		t.Errorf("%d core snapshots, want %d", len(stall.Cores), cfg.Cores)
	}
}
