package core

import (
	"fmt"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/cpu"
	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// Workload is a multithreaded program plus its environment: one
// program per core, optional external input streams (the OS input
// log), and initial memory contents.
type Workload struct {
	Name    string
	Progs   []isa.Program
	Inputs  [][]uint64
	InitMem map[uint64]uint64
}

// Result is the outcome of a recording run.
type Result struct {
	Log    *replaylog.Log
	Cycles uint64

	CoreStats []cpu.Stats
	RecStats  []Stats
	MemStats  coherence.Stats

	// FinalMemory and FinalRegs capture the recorded execution's
	// architectural outcome, used to verify deterministic replay.
	FinalMemory map[uint64]uint64
	FinalRegs   [][isa.NumRegs]uint64
}

// CPI returns each core's recorded cycles per retired instruction, or
// 1 for a core that retired nothing: the replay timing model's input.
func (r *Result) CPI() []float64 {
	cpi := make([]float64, len(r.CoreStats))
	for c, st := range r.CoreStats {
		cpi[c] = 1
		if st.Retired > 0 {
			cpi[c] = float64(st.Cycles) / float64(st.Retired)
		}
	}
	return cpi
}

// Retired returns each core's retired instruction count.
func (r *Result) Retired() []uint64 {
	n := make([]uint64, len(r.CoreStats))
	for c, st := range r.CoreStats {
		n[c] = st.Retired
	}
	return n
}

// Replay is the replay side of RnR checked against the recording: it
// patches the log, replays it under cfg with the recorded CPI, and
// verifies every register, memory word and retired count. progs and
// initMem must be the recorded workload's. A failed stage's error is
// returned as that stage reported it.
func (r *Result) Replay(cfg replay.Config, progs []isa.Program, initMem map[uint64]uint64) (*replay.Result, error) {
	patched, err := r.Log.Patch()
	if err != nil {
		return nil, err
	}
	rp, err := replay.New(cfg, patched, progs, initMem, r.CPI())
	if err != nil {
		return nil, err
	}
	rep, err := rp.Run()
	if err != nil {
		return nil, err
	}
	if err := replay.Verify(rep, r.FinalMemory, r.FinalRegs, r.Retired()); err != nil {
		return nil, err
	}
	return rep, nil
}

// Session wires per-core Recorders into a machine: the full
// RelaxReplay recording system.
type Session struct {
	M         *machine.Machine
	Recorders []*Recorder
	workload  Workload
	rcfg      Config

	samp recSampler
}

// recSampler drives the recorder-side cycle-sampled trace tracks
// (TRAQ occupancy and CISN per core). The zero value is disabled.
type recSampler struct {
	every  uint64
	tracer *telemetry.Tracer

	traq, cisn []string
}

func newRecSampler(t *telemetry.Telemetry, cores int) recSampler {
	tr := t.Tracer()
	if tr == nil || !tr.Enabled() || t.SampleEvery() == 0 {
		return recSampler{}
	}
	s := recSampler{every: t.SampleEvery(), tracer: tr}
	for c := 0; c < cores; c++ {
		s.traq = append(s.traq, fmt.Sprintf("traq[c%d]", c))
		s.cisn = append(s.cisn, fmt.Sprintf("cisn[c%d]", c))
	}
	return s
}

// sample emits one point on the recorder trace tracks.
func (s *Session) sample(cycle uint64) {
	if s.samp.every == 0 {
		return
	}
	tr := s.samp.tracer
	for i, r := range s.Recorders {
		tr.Counter(telemetry.PidRecord, i, "core", s.samp.traq[i], cycle, uint64(r.Occupancy()))
		tr.Counter(telemetry.PidRecord, i, "core", s.samp.cisn[i], cycle, r.CurrentISN())
	}
}

// NewSession builds a recording session for the workload. An invalid
// recorder configuration is reported here (see Config.Validate)
// instead of panicking mid-run.
func NewSession(mcfg machine.Config, rcfg Config, w Workload) (*Session, error) {
	if err := rcfg.Validate(); err != nil {
		return nil, err
	}
	// Either config may carry the telemetry instance; share it so one
	// wiring point covers both the machine and the recorders.
	if rcfg.Telemetry == nil {
		rcfg.Telemetry = mcfg.Telemetry
	}
	if mcfg.Telemetry == nil {
		mcfg.Telemetry = rcfg.Telemetry
	}
	recs := make([]*Recorder, mcfg.Cores)
	for i := range recs {
		r, err := NewRecorder(i, rcfg, nil)
		if err != nil {
			return nil, err
		}
		recs[i] = r
	}
	hookFor := func(i int) cpu.Hooks {
		r := recs[i]
		return cpu.Hooks{
			DispatchInstr: r.DispatchInstr,
			RetireInstr:   r.RetireInstr,
			LocalPerform: func(seq, addr, value uint64) {
				r.Perform(seq, addr, true, false, value, 0, false)
			},
			Squash: r.Squash,
			Halted: r.Halted,
		}
	}
	m := machine.New(mcfg, w.Progs, hookFor)
	// Each recorder ticks right after its core's pipeline.
	m.ExtraTick = func(core int, cycle uint64) { recs[core].Tick(cycle) }
	m.InitMemory(w.InitMem)
	for i, in := range w.Inputs {
		m.SetInputs(i, in)
	}
	m.PerformSink = func(ev coherence.PerformEvent) {
		recs[ev.Core].Perform(ev.ID, ev.Addr, ev.IsRead, ev.IsWrite, ev.Value, ev.StoredVal, ev.DidWrite)
	}
	directory := mcfg.Mem.Protocol == coherence.Directory
	m.Sys.OnRemoteSnoop = func(c int, line uint64, isWrite bool, requester int, cycle uint64) {
		terminated, seq := recs[c].ObserveRemoteFrom(line, isWrite, requester, cycle)
		if terminated && requester >= 0 && requester < len(recs) {
			// Cyrus-style dependence edge: the terminated interval of
			// core c must replay before the requester's interval that
			// will contain the conflicting access (its current one or
			// a later one; later intervals follow by program order).
			recs[requester].AddPred(recs[requester].CurrentISN(),
				replaylog.Pred{Core: c, Seq: seq})
		}
	}
	m.Sys.OnDirtyEvict = func(c int, line uint64, cycle uint64) {
		recs[c].DirtyEvict(line, directory, cycle)
	}
	if rcfg.Ordering == OrderingLamport {
		m.Sys.ClockOf = func(c int) uint64 { return recs[c].OrdererClock() }
		m.Sys.OnHint = func(c int, hint uint64) { recs[c].SyncClock(hint) }
	}
	return &Session{
		M: m, Recorders: recs, workload: w, rcfg: rcfg,
		samp: newRecSampler(rcfg.Telemetry, mcfg.Cores),
	}, nil
}

// Run records the workload to completion and returns the log.
//
// The cycle loop itself is machine.RunWith — one shared driver for
// the bare machine and the recording session — parameterized here
// with the recorder side: TRAQ drain keeps the loop alive after the
// machine quiesces, and recorder telemetry samples at the end of
// every cycle.
func (s *Session) Run() (*Result, error) {
	m := s.M
	err := m.RunWith(machine.Driver{
		ExtraBusy: func() bool {
			for _, r := range s.Recorders {
				if r.Busy() {
					return true
				}
			}
			return false
		},
		EndCycle: func(cycle uint64) {
			if s.samp.every != 0 && cycle%s.samp.every == 0 {
				s.sample(cycle)
			}
		},
		// Close every sampled track at the exact end of the run.
		FinalSample: func() {
			m.SampleTelemetry()
			s.sample(m.Cycle())
		},
		WrapErr: func(core int, err error) error {
			return fmt.Errorf("core: recording: core %d: %w", core, err)
		},
	})
	if err != nil {
		return nil, err
	}

	log := &replaylog.Log{
		Cores:   m.Config().Cores,
		Variant: s.rcfg.Variant.String(),
		Inputs:  s.workload.Inputs,
	}
	if log.Inputs == nil {
		log.Inputs = make([][]uint64, m.Config().Cores)
	}
	res := &Result{
		Log:         log,
		Cycles:      m.Cycle(),
		MemStats:    m.Sys.Stats,
		FinalMemory: m.FinalMemory(),
	}
	for i, r := range s.Recorders {
		stream, err := r.Finalize(m.Cycle())
		if err != nil {
			return nil, err
		}
		// flush.crash: the session dies mid-flush of this core's stream,
		// losing its tail intervals. Downstream must surface the loss as
		// a classified failure, never replay silently wrong.
		if s.rcfg.Faults.Fire(faultinject.FlushCrash) && len(stream.Intervals) > 0 {
			keep := int(s.rcfg.Faults.Rand(faultinject.FlushCrash, uint64(len(stream.Intervals))))
			stream.Intervals = stream.Intervals[:keep]
		}
		log.Streams = append(log.Streams, stream)
		res.CoreStats = append(res.CoreStats, m.Cores[i].Stats)
		res.RecStats = append(res.RecStats, r.Stats)
		res.FinalRegs = append(res.FinalRegs, m.Cores[i].ArchRegs())
	}
	if err := log.Validate(); err != nil {
		return nil, fmt.Errorf("core: recorded log invalid: %w", err)
	}
	// Attach the provenance sideband after the streams are final: the
	// snapshot describes everything the recorders terminated, including
	// any tail a flush.crash fault truncated out of the streams — the
	// forensic record of what was lost.
	log.Provenance = s.rcfg.Provenance.Snapshot()
	return res, nil
}

// Record is the one-call convenience wrapper: build a session and run it.
func Record(mcfg machine.Config, rcfg Config, w Workload) (*Result, error) {
	s, err := NewSession(mcfg, rcfg, w)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
