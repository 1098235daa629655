// Chaos mode: rerun a figure's workloads under a matrix of injected
// faults and demand that every cell ends in one of the allowed,
// classified outcomes — a byte-identical replay, an explicitly
// degraded partial replay, or a typed loud failure. Anything else
// (a panic, a hang, a clean-looking replay of a corrupted log that
// silently diverges) fails the matrix: the whole point of the
// robustness exercise is that corruption is never survived silently.
package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"relaxreplay/internal/core"
	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/stats"
)

// Chaos outcome classes. The first five are the allowed terminal
// states; everything else is forbidden and fails ChaosMatrix.
const (
	// OutcomeIdentical: the log decoded cleanly and replay reproduced
	// the recorded final memory, registers and instruction counts.
	OutcomeIdentical = "replayed-identical"
	// OutcomeDegraded: corruption was detected, quarantined, and the
	// surviving prefix replayed with the loss explicitly reported.
	OutcomeDegraded = "degraded-partial"
	// OutcomeRejected: the pipeline refused the input with a typed
	// error (ErrCorruptFrame / ErrTruncated / invalid-log rejection).
	OutcomeRejected = "corrupt-rejected"
	// OutcomeRecordStall: the fault wedged the recorded machine and the
	// cycle watchdog converted the hang into *machine.StallError.
	OutcomeRecordStall = "record-stalled"
	// OutcomeReplayStall: the replay watchdog converted a replay hang
	// into *replay.ErrStalled.
	OutcomeReplayStall = "replay-stalled"

	// Forbidden outcomes.
	OutcomePanic  = "PANIC"              // a handler panicked
	OutcomeSilent = "SILENT-DIVERGENCE"  // clean pipeline, wrong answer
	OutcomeError  = "UNCLASSIFIED-ERROR" // an untyped failure leaked out
)

// ForbiddenOutcome reports whether an outcome class fails the matrix.
func ForbiddenOutcome(o string) bool {
	switch o {
	case OutcomeIdentical, OutcomeDegraded, OutcomeRejected,
		OutcomeRecordStall, OutcomeReplayStall:
		return false
	}
	return true
}

// chaosBaseline is the pseudo-point for the no-fault control cell.
const chaosBaseline = "baseline"

// recordSidePoints are the faults that perturb the recording machine
// itself (vs. the encoded log bytes) and therefore need a fresh,
// uncached recording run.
var recordSidePoints = map[faultinject.Point]bool{
	faultinject.ICDelay:    true,
	faultinject.ICDrop:     true,
	faultinject.FlushCrash: true,
}

// DefaultChaosApps is the workload subset chaos mode exercises when
// the suite has no explicit app list: enough variety (FFT's regular
// reordering, LU's sharing, radix's scatter, ocean's neighbours)
// without rerunning the whole catalogue per fault point.
var DefaultChaosApps = []string{"fft", "lu", "radix", "ocean"}

// ChaosCell is one (app, fault point) cell of the matrix.
type ChaosCell struct {
	App     string
	Point   string // fault point name, or "baseline"
	Outcome string // one of the Outcome* classes
	Fired   uint64 // faults actually injected in this cell
	Detail  string // one-line cause / degradation description

	// Forensics carries one structured divergence report per replay
	// degradation of a degraded cell (a DamageReport when the cell
	// degraded purely from log damage, with no per-core divergence to
	// point at). Nil for non-degraded cells.
	Forensics []*replay.DivergenceReport
}

// ChaosResult is the full matrix plus its rendered table.
type ChaosResult struct {
	Cells []ChaosCell
	Table *stats.Table
}

// Forbidden returns the cells with forbidden outcomes.
func (r *ChaosResult) Forbidden() []ChaosCell {
	var out []ChaosCell
	for _, c := range r.Cells {
		if ForbiddenOutcome(c.Outcome) {
			out = append(out, c)
		}
	}
	return out
}

// ChaosMatrix runs every chaos app against the injector's enabled
// fault points (one isolated point per cell, plus a no-fault baseline
// per app) and classifies each cell. It returns the assembled matrix
// and a non-nil error when any cell lands in a forbidden class; the
// result is returned alongside the error so callers can still print
// the table.
func (s *Suite) ChaosMatrix(inj *faultinject.Injector) (*ChaosResult, error) {
	if inj == nil {
		return nil, fmt.Errorf("experiments: chaos mode needs an enabled fault injector (-faults spec@seed)")
	}
	var points []faultinject.Point
	for _, p := range faultinject.Points() {
		// net.* points only fire inside the streaming transport; in this
		// file-based matrix they would produce all-baseline cells. They
		// get their own grid: NetChaosGrid.
		if faultinject.IsNetPoint(p) {
			continue
		}
		if inj.Enabled(p) {
			points = append(points, p)
		}
	}
	apps := s.opts.Apps
	if len(apps) == 0 {
		apps = DefaultChaosApps
	}

	type cellSpec struct {
		app   string
		point string
	}
	var specs []cellSpec
	for _, app := range apps {
		specs = append(specs, cellSpec{app, chaosBaseline})
		for _, p := range points {
			specs = append(specs, cellSpec{app, string(p)})
		}
	}

	cells, err := parmap(s, len(specs), func(i int) (ChaosCell, error) {
		return s.chaosCell(specs[i].app, specs[i].point, inj), nil
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Chaos matrix: fault injection across %d apps x %d points",
			len(apps), len(points)),
		"app", "fault", "outcome", "fired", "detail")
	for _, c := range cells {
		t.AddRow(c.App, c.Point, c.Outcome, fmt.Sprintf("%d", c.Fired), c.Detail)
	}
	// Cells arrive in parmap's completion-independent index order, but
	// sort anyway: the table's contract is byte-identical output across
	// runs regardless of how the rows were produced.
	t.SortRows()
	res := &ChaosResult{Cells: cells, Table: t}
	if bad := res.Forbidden(); len(bad) > 0 {
		var names []string
		for _, c := range bad {
			names = append(names, fmt.Sprintf("%s/%s=%s", c.App, c.Point, c.Outcome))
		}
		return res, fmt.Errorf("experiments: chaos matrix: %d forbidden outcome(s): %s",
			len(bad), strings.Join(names, ", "))
	}
	return res, nil
}

// chaosCell classifies one cell. It never panics out (a panic becomes
// the forbidden OutcomePanic class) and never returns an empty
// outcome.
func (s *Suite) chaosCell(app, point string, inj *faultinject.Injector) (cell ChaosCell) {
	cell = ChaosCell{App: app, Point: point}
	var cinj *faultinject.Injector
	defer func() {
		for _, n := range cinj.Counts() {
			cell.Fired += n
		}
		if r := recover(); r != nil {
			cell.Outcome = OutcomePanic
			cell.Detail = chaosDetail(fmt.Sprint(r))
		}
	}()

	// The clean baseline recording anchors every cell: it supplies the
	// reference final state, the cycle budget for faulted reruns, and
	// (for log faults) the log bytes to corrupt.
	base, err := s.record(Spec{App: app, Variant: core.Opt, Mode: I4K, Cores: s.opts.Cores})
	if err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail("baseline: " + err.Error())
		return cell
	}

	if point == chaosBaseline {
		return s.chaosBaselineCell(cell, base)
	}

	// One isolated fault per cell, on a per-cell deterministic stream:
	// the cell's label (not scheduling order) decides where it lands.
	cinj = inj.Restrict(app+"/"+point, faultinject.Point(point))
	cinj.SetTelemetry(s.opts.Telemetry)

	res := base.Res
	if recordSidePoints[faultinject.Point(point)] {
		res, err = s.chaosRecord(base, cinj)
		if err != nil {
			var stall *machine.StallError
			if errors.As(err, &stall) {
				cell.Outcome = OutcomeRecordStall
				cell.Detail = chaosDetail(fmt.Sprintf("after %d cycles", stall.Cycles))
			} else {
				cell.Outcome = OutcomeError
				cell.Detail = chaosDetail("record: " + err.Error())
			}
			return cell
		}
	}

	// Encode v3 under the injector (dupframe), corrupt the bytes
	// (bitflip / truncate / shortwrite), read through the injector
	// (shortread): the same hostile pipeline rrlog and replay face in
	// the field.
	var buf bytes.Buffer
	if err := replaylog.EncodeV3With(&buf, res.Log, cinj); err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail("encode: " + err.Error())
		return cell
	}
	data, _ := cinj.Corrupt(buf.Bytes())
	l, rep, err := replaylog.DecodeParallel(cinj.WrapReader(bytes.NewReader(data), int64(len(data))))
	if err != nil {
		cell.Outcome = OutcomeRejected
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	if reg := s.opts.Telemetry.Registry(); reg != nil && rep.Dropped > 0 {
		reg.Counter("replaylog.frames_dropped").Add(0, uint64(rep.Dropped))
	}
	patched, unplaced, err := l.PatchPartial()
	if err != nil {
		cell.Outcome = OutcomeRejected
		cell.Detail = chaosDetail("patch: " + err.Error())
		return cell
	}

	rpcfg := replay.DefaultConfig()
	rpcfg.AllowPartial = true
	rpcfg.Telemetry = s.opts.Telemetry
	rp, err := replay.New(rpcfg, patched, base.W.Progs, base.W.InitMem, nil)
	if err != nil {
		cell.Outcome = OutcomeRejected
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	rres, err := rp.Run()
	if err != nil {
		var stall *replay.ErrStalled
		if errors.As(err, &stall) {
			cell.Outcome = OutcomeReplayStall
			cell.Detail = chaosDetail(fmt.Sprintf("steps %d/%d at core %d",
				stall.Report.Steps, stall.Report.Budget, stall.Report.Core))
		} else {
			cell.Outcome = OutcomeError
			cell.Detail = chaosDetail("replay: " + err.Error())
		}
		return cell
	}

	verr := replay.Verify(rres, res.FinalMemory, res.FinalRegs, res.Retired())
	degraded := rres.Degraded() || !rep.Clean() || unplaced > 0
	switch {
	case degraded:
		// Loss happened and was reported. The replay's outcome is only
		// authoritative for undegraded cores, so a verify mismatch here
		// is expected, not silent.
		cell.Outcome = OutcomeDegraded
		cell.Detail = chaosDetail(chaosDegradeDetail(rep, unplaced, rres))
		cell.Forensics = replay.DivergenceReports(patched, rres.Degradations, replay.ForensicsOptions{})
		if len(cell.Forensics) == 0 {
			// Degraded purely from log damage (dropped frames, unplaced
			// stores): no per-core divergence exists, so attach the damage
			// summary as the forensic record instead.
			cell.Forensics = append(cell.Forensics,
				replay.DamageReport(chaosDegradeDetail(rep, unplaced, rres)))
		}
	case verr != nil:
		cell.Outcome = OutcomeSilent
		cell.Detail = chaosDetail(verr.Error())
	default:
		cell.Outcome = OutcomeIdentical
	}
	return cell
}

// chaosBaselineCell is the no-fault control: the v3 encoder with a
// nil injector must be byte-identical to plain EncodeV3 (run to run
// and path to path), and the cached replay must verify.
func (s *Suite) chaosBaselineCell(cell ChaosCell, base *Run) ChaosCell {
	var plain, with1, with2 bytes.Buffer
	if err := replaylog.EncodeV3(&plain, base.Res.Log); err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	if err := replaylog.EncodeV3With(&with1, base.Res.Log, nil); err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	if err := replaylog.EncodeV3With(&with2, base.Res.Log, nil); err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	if !bytes.Equal(plain.Bytes(), with1.Bytes()) || !bytes.Equal(with1.Bytes(), with2.Bytes()) {
		cell.Outcome = OutcomeError
		cell.Detail = "encode not byte-identical with faults disabled"
		return cell
	}
	if _, err := s.Replay(base); err != nil {
		cell.Outcome = OutcomeError
		cell.Detail = chaosDetail(err.Error())
		return cell
	}
	cell.Outcome = OutcomeIdentical
	cell.Detail = fmt.Sprintf("%d log bytes", plain.Len())
	return cell
}

// chaosRecord reruns a recording with the cell's injector wired into
// the machine (interconnect faults) and the recording session (flush
// crash). The cycle budget is bounded off the clean baseline so a
// wedged machine surfaces as *machine.StallError in seconds, not the
// half-billion-cycle default.
func (s *Suite) chaosRecord(base *Run, cinj *faultinject.Injector) (*core.Result, error) {
	rcfg := core.DefaultConfig(base.Variant)
	rcfg.Faults = cinj
	// ic.drop is consulted once per injected ring message; arming it
	// within the baseline's message count guarantees the drop lands
	// inside the run rather than beyond it (the faulted run injects
	// the same messages as the baseline up to the drop point).
	cinj.ArmWithin(faultinject.ICDrop, base.Res.MemStats.RingMessages)
	mcfg := machine.DefaultConfig(base.Cores)
	mcfg.Mem.Protocol = s.opts.Protocol
	mcfg.MaxCycles = base.Res.Cycles*20 + 100_000
	mcfg.Faults = cinj
	return core.Record(mcfg, rcfg, core.Workload{
		Name: base.W.Name, Progs: base.W.Progs, Inputs: base.W.Inputs, InitMem: base.W.InitMem,
	})
}

// chaosDegradeDetail summarizes what was lost and what survived.
func chaosDegradeDetail(rep *replaylog.CorruptionReport, unplaced int, rres *replay.Result) string {
	var parts []string
	if rep != nil && !rep.Clean() {
		parts = append(parts, rep.Summary())
	}
	if unplaced > 0 {
		parts = append(parts, fmt.Sprintf("%d stores unpatchable", unplaced))
	}
	for _, d := range rres.Degradations {
		parts = append(parts, d.String())
	}
	if len(parts) == 0 {
		parts = append(parts, "degraded")
	}
	return strings.Join(parts, "; ")
}

// chaosDetail clips a detail string to one table-friendly line.
func chaosDetail(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const max = 90
	if len(s) > max {
		s = s[:max-3] + "..."
	}
	return s
}
