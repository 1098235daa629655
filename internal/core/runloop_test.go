package core

import (
	"errors"
	"testing"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/machine"
)

// TestDeadlockRunsToMaxCycles pins what a frozen recording does: the
// run loop ticks every cycle up to the budget and then reports a
// *machine.StallError at exactly MaxCycles, with every spinning core
// having ticked every one of those cycles.
func TestDeadlockRunsToMaxCycles(t *testing.T) {
	mcfg := machineConfig(2, coherence.Snoopy)
	mcfg.MaxCycles = 20_000
	s, err := NewSession(mcfg, DefaultConfig(Base), spinlockWorkload(2, 2))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	// Pre-acquire the lock (0x100) so every core spins on CAS forever.
	s.M.InitMemory(map[uint64]uint64{0x100: 1})
	_, err = s.Run()
	var st *machine.StallError
	if !errors.As(err, &st) {
		t.Fatalf("Run = %v, want *machine.StallError", err)
	}
	if st.Cycles != mcfg.MaxCycles || s.M.Cycle() != mcfg.MaxCycles {
		t.Errorf("stall at %d, machine cycle %d, want both %d", st.Cycles, s.M.Cycle(), mcfg.MaxCycles)
	}
	for i, c := range s.M.Cores {
		if c.Stats.Cycles != mcfg.MaxCycles {
			t.Errorf("core %d ticked %d cycles, want %d", i, c.Stats.Cycles, mcfg.MaxCycles)
		}
	}
}

// TestSessionCoreErrorWinsAtMaxCycles is the session-level half of
// machine.TestCoreErrorWinsAtMaxCycles: a core error raised on the
// last budgeted cycle must surface from Session.Run at its true cycle,
// not be masked as a *machine.StallError.
func TestSessionCoreErrorWinsAtMaxCycles(t *testing.T) {
	b := isa.NewBuilder("in-after-mul")
	b.Li(isa.R(3), 7)
	b.Mul(isa.R(3), isa.R(3), isa.R(3))
	b.In(isa.R(4))
	b.Halt()
	prog := b.MustBuild()
	w := Workload{Name: "in-after-mul", Progs: []isa.Program{prog}}

	record := func(lat, maxCycles uint64) (uint64, error) {
		mcfg := machineConfig(1, coherence.Snoopy)
		mcfg.CPU.MulLat = lat
		if maxCycles != 0 {
			mcfg.MaxCycles = maxCycles
		}
		s, err := NewSession(mcfg, DefaultConfig(Opt), w)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run()
		return s.M.Cycle(), err
	}

	for _, lat := range []uint64{1, 3, 12, 30} {
		errCycle, err := record(lat, 0)
		if !errors.Is(err, isa.ErrOutOfInput) {
			t.Fatalf("lat=%d: got %v, want ErrOutOfInput", lat, err)
		}
		pinnedCycle, err := record(lat, errCycle)
		var stall *machine.StallError
		if errors.As(err, &stall) {
			t.Errorf("lat=%d: core error at the MaxCycles boundary masked as %v", lat, err)
		} else if !errors.Is(err, isa.ErrOutOfInput) {
			t.Errorf("lat=%d: pinned: got %v, want ErrOutOfInput", lat, err)
		}
		if pinnedCycle != errCycle {
			t.Errorf("lat=%d: pinned run reported at cycle %d, want %d", lat, pinnedCycle, errCycle)
		}
	}
}
