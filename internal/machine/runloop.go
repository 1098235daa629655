package machine

import "fmt"

// Driver customizes the shared run loop (RunWith) without duplicating
// it: machine.Run uses the zero Driver, and the recording session
// layers its recorder state on top through these hooks, so the bare
// machine and the session step through the same loop.
//
// Every hook may be nil.
type Driver struct {
	// ExtraBusy keeps the loop running after the machine quiesces
	// while out-of-machine state (recorder TRAQs) still drains.
	ExtraBusy func() bool

	// EndCycle runs after every cycle, e.g. for cycle-sampled recorder
	// telemetry.
	EndCycle func(cycle uint64)

	// FinalSample closes cycle-sampled tracks at the exact end of the
	// run (completion or stall). Nil means Machine.SampleTelemetry.
	FinalSample func()

	// WrapErr decorates a core error. Nil means the plain
	// "machine: core %d" prefix.
	WrapErr func(core int, err error) error
}

// RunWith steps the machine to completion, calling d's hooks:
// one Step per cycle, core errors checked after every step, and a
// *StallError once Config.MaxCycles elapse without completion.
func (m *Machine) RunWith(d Driver) error {
	for !m.Done() || (d.ExtraBusy != nil && d.ExtraBusy()) {
		if m.cycle >= m.cfg.MaxCycles {
			m.finish(d)
			return &StallError{Cycles: m.cfg.MaxCycles, Cores: m.snapshotCores()}
		}
		m.Step()
		if d.EndCycle != nil {
			d.EndCycle(m.cycle)
		}
		for _, c := range m.Cores {
			if err := c.Err(); err != nil {
				if d.WrapErr != nil {
					return d.WrapErr(c.ID(), err)
				}
				return fmt.Errorf("machine: core %d: %w", c.ID(), err)
			}
		}
	}
	m.finish(d)
	return nil
}

// finish closes the cycle-sampled tracks at the end of a run.
func (m *Machine) finish(d Driver) {
	if d.FinalSample != nil {
		d.FinalSample()
		return
	}
	m.SampleTelemetry()
}
