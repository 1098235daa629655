package experiments

import (
	"fmt"
	"strings"

	"relaxreplay/internal/core"
	"relaxreplay/internal/cpu"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/stats"
	"relaxreplay/internal/workload"
)

// Figure 1 -----------------------------------------------------------------

// Fig1Row reports the fraction of memory instructions performed out of
// program order for one application.
type Fig1Row struct {
	App       string
	OOOLoads  float64
	OOOStores float64
}

// Figure1 reproduces paper Figure 1: the fraction of memory-access
// instructions performed out of program order (paper average: 59%
// loads, 3% stores).
func (s *Suite) Figure1() ([]Fig1Row, *stats.Table, error) {
	if err := s.RecordAll(s.crossApps(s.opts.Cores, vmCfg{core.Base, INF})); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 1: memory accesses performed out of program order",
		"app", "OOO loads", "OOO stores", "total OOO")
	var rows []Fig1Row
	var ls, ss []float64
	for _, app := range s.Apps() {
		run, err := s.Record(app, core.Base, INF, s.opts.Cores)
		if err != nil {
			return nil, nil, err
		}
		l, st := run.OOOFractions()
		rows = append(rows, Fig1Row{App: app, OOOLoads: l, OOOStores: st})
		ls, ss = append(ls, l), append(ss, st)
		t.AddRow(app, stats.Pct(l, 1), stats.Pct(st, 1), stats.Pct(l+st, 1))
	}
	rows = append(rows, Fig1Row{App: "average", OOOLoads: stats.Mean(ls), OOOStores: stats.Mean(ss)})
	t.AddRow("average", stats.Pct(stats.Mean(ls), 1), stats.Pct(stats.Mean(ss), 1),
		stats.Pct(stats.Mean(ls)+stats.Mean(ss), 1))
	return rows, t, nil
}

// Figure 9 -----------------------------------------------------------------

// Fig9Row reports reordered-access fractions for one application.
type Fig9Row struct {
	App             string
	Base4K, Opt4K   float64
	BaseINF, OptINF float64
}

// Figure9 reproduces paper Figure 9: the fraction of memory accesses
// logged as reordered (paper averages: Base 1.7%/0.17% for 4K/INF;
// Opt 0.03% for both).
func (s *Suite) Figure9() ([]Fig9Row, *stats.Table, error) {
	if err := s.RecordAll(s.crossApps(s.opts.Cores, allCfgs...)); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 9: accesses logged as reordered (% of memory instructions)",
		"app", "Base 4K", "Opt 4K", "Base INF", "Opt INF")
	var rows []Fig9Row
	avg := Fig9Row{App: "average"}
	for _, app := range s.Apps() {
		row := Fig9Row{App: app}
		for _, cfg := range []struct {
			v    core.Variant
			m    IntervalMode
			dest *float64
			acc  *float64
		}{
			{core.Base, I4K, &row.Base4K, &avg.Base4K},
			{core.Opt, I4K, &row.Opt4K, &avg.Opt4K},
			{core.Base, INF, &row.BaseINF, &avg.BaseINF},
			{core.Opt, INF, &row.OptINF, &avg.OptINF},
		} {
			run, err := s.Record(app, cfg.v, cfg.m, s.opts.Cores)
			if err != nil {
				return nil, nil, err
			}
			*cfg.dest = run.ReorderedFraction()
			*cfg.acc += *cfg.dest
		}
		rows = append(rows, row)
		t.AddRow(app, stats.Pct(row.Base4K, 3), stats.Pct(row.Opt4K, 3),
			stats.Pct(row.BaseINF, 3), stats.Pct(row.OptINF, 3))
	}
	n := float64(len(s.Apps()))
	avg.Base4K, avg.Opt4K, avg.BaseINF, avg.OptINF = avg.Base4K/n, avg.Opt4K/n, avg.BaseINF/n, avg.OptINF/n
	rows = append(rows, avg)
	t.AddRow("average", stats.Pct(avg.Base4K, 3), stats.Pct(avg.Opt4K, 3),
		stats.Pct(avg.BaseINF, 3), stats.Pct(avg.OptINF, 3))
	return rows, t, nil
}

// Figure 10 ----------------------------------------------------------------

// Fig10Row reports InorderBlock counts normalized to RelaxReplay_Base.
type Fig10Row struct {
	App             string
	Opt4KNorm       float64
	OptINFNorm      float64
	Base4K, BaseINF uint64
	Opt4K, OptINF   uint64
}

// Figure10 reproduces paper Figure 10: the number of InorderBlock
// entries, normalized to Base (paper averages: 13% at 4K, 48% at INF).
func (s *Suite) Figure10() ([]Fig10Row, *stats.Table, error) {
	if err := s.RecordAll(s.crossApps(s.opts.Cores, allCfgs...)); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 10: InorderBlock entries, Opt normalized to Base",
		"app", "Base 4K", "Opt 4K", "Opt/Base 4K", "Base INF", "Opt INF", "Opt/Base INF")
	var rows []Fig10Row
	var n4, ninf []float64
	for _, app := range s.Apps() {
		row := Fig10Row{App: app}
		for _, cfg := range []struct {
			v    core.Variant
			m    IntervalMode
			dest *uint64
		}{
			{core.Base, I4K, &row.Base4K},
			{core.Opt, I4K, &row.Opt4K},
			{core.Base, INF, &row.BaseINF},
			{core.Opt, INF, &row.OptINF},
		} {
			run, err := s.Record(app, cfg.v, cfg.m, s.opts.Cores)
			if err != nil {
				return nil, nil, err
			}
			*cfg.dest = run.InorderBlocks()
		}
		row.Opt4KNorm = stats.Ratio(float64(row.Opt4K), float64(row.Base4K))
		row.OptINFNorm = stats.Ratio(float64(row.OptINF), float64(row.BaseINF))
		n4 = append(n4, row.Opt4KNorm)
		ninf = append(ninf, row.OptINFNorm)
		rows = append(rows, row)
		t.AddRow(app, fmt.Sprint(row.Base4K), fmt.Sprint(row.Opt4K), stats.Pct(row.Opt4KNorm, 0),
			fmt.Sprint(row.BaseINF), fmt.Sprint(row.OptINF), stats.Pct(row.OptINFNorm, 0))
	}
	rows = append(rows, Fig10Row{App: "average", Opt4KNorm: stats.Mean(n4), OptINFNorm: stats.Mean(ninf)})
	t.AddRow("average", "", "", stats.Pct(stats.Mean(n4), 0), "", "", stats.Pct(stats.Mean(ninf), 0))
	return rows, t, nil
}

// Figure 11 ----------------------------------------------------------------

// Fig11Row reports log sizes for one application.
type Fig11Row struct {
	App                                            string
	Base4KBits, Opt4KBits, BaseINFBits, OptINFBits float64 // bits / 1K instructions
	Base4KMBps, Opt4KMBps, BaseINFMBps, OptINFMBps float64
	// Compressed on-disk (format v3) bytes / 1K instructions, shown
	// next to the paper's uncompressed architectural metric above.
	Base4KV3B, Opt4KV3B, BaseINFV3B, OptINFV3B float64
}

// Figure11 reproduces paper Figure 11: uncompressed log size in bits
// per 1K instructions (paper averages: Base 360/42, Opt 22/12 for
// 4K/INF) and the derived log generation rates in MB/s (paper: Base
// 840/90, Opt 48/25).
func (s *Suite) Figure11() ([]Fig11Row, *stats.Table, error) {
	if err := s.RecordAll(s.crossApps(s.opts.Cores, allCfgs...)); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 11: uncompressed log size (bits / 1K instructions)",
		"app", "Base 4K", "Opt 4K", "Base INF", "Opt INF")
	var rows []Fig11Row
	avg := Fig11Row{App: "average"}
	for _, app := range s.Apps() {
		row := Fig11Row{App: app}
		for _, cfg := range []struct {
			v              core.Variant
			m              IntervalMode
			bits, rate, v3 *float64
		}{
			{core.Base, I4K, &row.Base4KBits, &row.Base4KMBps, &row.Base4KV3B},
			{core.Opt, I4K, &row.Opt4KBits, &row.Opt4KMBps, &row.Opt4KV3B},
			{core.Base, INF, &row.BaseINFBits, &row.BaseINFMBps, &row.BaseINFV3B},
			{core.Opt, INF, &row.OptINFBits, &row.OptINFMBps, &row.OptINFV3B},
		} {
			run, err := s.Record(app, cfg.v, cfg.m, s.opts.Cores)
			if err != nil {
				return nil, nil, err
			}
			*cfg.bits = run.BitsPer1K()
			*cfg.rate = run.LogRateMBps(s.opts.ClockGHz)
			*cfg.v3 = run.V3BytesPer1K()
		}
		avg.Base4KBits += row.Base4KBits
		avg.Opt4KBits += row.Opt4KBits
		avg.BaseINFBits += row.BaseINFBits
		avg.OptINFBits += row.OptINFBits
		avg.Base4KMBps += row.Base4KMBps
		avg.Opt4KMBps += row.Opt4KMBps
		avg.BaseINFMBps += row.BaseINFMBps
		avg.OptINFMBps += row.OptINFMBps
		avg.Base4KV3B += row.Base4KV3B
		avg.Opt4KV3B += row.Opt4KV3B
		avg.BaseINFV3B += row.BaseINFV3B
		avg.OptINFV3B += row.OptINFV3B
		rows = append(rows, row)
		t.AddRow(app, stats.F(row.Base4KBits, 0), stats.F(row.Opt4KBits, 0),
			stats.F(row.BaseINFBits, 0), stats.F(row.OptINFBits, 0))
	}
	n := float64(len(s.Apps()))
	avg.Base4KBits /= n
	avg.Opt4KBits /= n
	avg.BaseINFBits /= n
	avg.OptINFBits /= n
	avg.Base4KMBps /= n
	avg.Opt4KMBps /= n
	avg.BaseINFMBps /= n
	avg.OptINFMBps /= n
	avg.Base4KV3B /= n
	avg.Opt4KV3B /= n
	avg.BaseINFV3B /= n
	avg.OptINFV3B /= n
	rows = append(rows, avg)
	t.AddRow("average", stats.F(avg.Base4KBits, 0), stats.F(avg.Opt4KBits, 0),
		stats.F(avg.BaseINFBits, 0), stats.F(avg.OptINFBits, 0))
	t.AddRow("MB/s @2GHz", stats.F(avg.Base4KMBps, 1), stats.F(avg.Opt4KMBps, 1),
		stats.F(avg.BaseINFMBps, 1), stats.F(avg.OptINFMBps, 1))
	t.AddRow("v3 B/1K", stats.F(avg.Base4KV3B, 1), stats.F(avg.Opt4KV3B, 1),
		stats.F(avg.BaseINFV3B, 1), stats.F(avg.OptINFV3B, 1))
	return rows, t, nil
}

// Figure 12 ----------------------------------------------------------------

// Fig12Row reports TRAQ occupancy for one application.
type Fig12Row struct {
	App       string
	Average   float64
	Histogram []float64 // bins of 10 entries, fraction of samples
}

// Figure12 reproduces paper Figure 12: average TRAQ occupancy per
// application (paper: below 64 everywhere) and, for four
// representative applications, the occupancy distribution in bins of
// 10 entries.
func (s *Suite) Figure12() ([]Fig12Row, *stats.Table, error) {
	if err := s.RecordAll(s.crossApps(s.opts.Cores, vmCfg{core.Opt, I4K})); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 12(a): average TRAQ entries in use (of 176)", "app", "avg occupancy")
	var rows []Fig12Row
	var avgs []float64
	for _, app := range s.Apps() {
		run, err := s.Record(app, core.Opt, I4K, s.opts.Cores)
		if err != nil {
			return nil, nil, err
		}
		row := Fig12Row{App: app, Average: run.TRAQAverage(), Histogram: run.TRAQHistogram()}
		rows = append(rows, row)
		avgs = append(avgs, row.Average)
		t.AddRow(app, stats.F(row.Average, 1))
	}
	t.AddRow("average", stats.F(stats.Mean(avgs), 1))
	return rows, t, nil
}

// Figure12Histograms renders the Figure 12(b) distributions for the
// chosen applications.
func (s *Suite) Figure12Histograms(apps []string) (*stats.Table, error) {
	var specs []Spec
	for _, app := range apps {
		specs = append(specs, Spec{App: app, Variant: core.Opt, Mode: I4K, Cores: s.opts.Cores})
	}
	if err := s.RecordAll(specs); err != nil {
		return nil, err
	}
	cols := []string{"bin"}
	var hists [][]float64
	for _, app := range apps {
		run, err := s.Record(app, core.Opt, I4K, s.opts.Cores)
		if err != nil {
			return nil, err
		}
		cols = append(cols, app)
		hists = append(hists, run.TRAQHistogram())
	}
	t := stats.NewTable("Figure 12(b): TRAQ occupancy distribution (fraction of cycles)", cols...)
	for bin := 0; bin < 20; bin++ {
		label := fmt.Sprintf("%d-%d", bin*10, bin*10+9)
		if bin == 19 {
			label = "190+"
		}
		cells := []string{label}
		nonzero := false
		for _, h := range hists {
			cells = append(cells, stats.Pct(h[bin], 1))
			if h[bin] > 0.0005 {
				nonzero = true
			}
		}
		if nonzero {
			t.AddRow(cells...)
		}
	}
	return t, nil
}

// Figure 13 ----------------------------------------------------------------

// Fig13Row reports replay time normalized to parallel recording time.
type Fig13Row struct {
	App     string
	Variant core.Variant
	Mode    IntervalMode

	NormTotal float64 // replay cycles / recording cycles
	NormUser  float64
	NormOS    float64
}

// Figure13 reproduces paper Figure 13: sequential replay time with Opt
// and Base logs, normalized to the parallel recording time, broken
// into user and OS cycles (paper averages: Opt 8.5x/6.7x for 4K/INF;
// Base 26.2x/8.6x).
func (s *Suite) Figure13() ([]Fig13Row, *stats.Table, error) {
	// Warm both the recordings and their replay memos (with Verify off
	// the replays would otherwise run serially below).
	specs := s.crossApps(s.opts.Cores, allCfgs...)
	if _, err := parmap(s, len(specs), func(i int) (*replay.Result, error) {
		run, err := s.record(specs[i])
		if err != nil {
			return nil, err
		}
		return s.Replay(run)
	}); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 13: sequential replay time (normalized to parallel recording)",
		"app", "Opt 4K", "(OS%)", "Base 4K", "(OS%)", "Opt INF", "(OS%)", "Base INF", "(OS%)")
	var rows []Fig13Row
	type agg struct{ tot, os []float64 }
	// Keyed by the (variant, mode) pair itself: a comparable struct key
	// cannot collide the way a formatted string key could, and the hot
	// aggregation loop stops formatting strings entirely.
	aggs := map[vmCfg]*agg{}
	cfgs := []vmCfg{{core.Opt, I4K}, {core.Base, I4K}, {core.Opt, INF}, {core.Base, INF}}
	for _, app := range s.Apps() {
		cells := []string{app}
		for _, cfg := range cfgs {
			run, err := s.Record(app, cfg.v, cfg.m, s.opts.Cores)
			if err != nil {
				return nil, nil, err
			}
			rep, err := s.Replay(run)
			if err != nil {
				return nil, nil, err
			}
			rec := float64(run.Res.Cycles)
			row := Fig13Row{
				App: app, Variant: cfg.v, Mode: cfg.m,
				NormTotal: float64(rep.Timing.Total()) / rec,
				NormUser:  float64(rep.Timing.UserCycles) / rec,
				NormOS:    float64(rep.Timing.OSCycles) / rec,
			}
			rows = append(rows, row)
			if aggs[cfg] == nil {
				aggs[cfg] = &agg{}
			}
			aggs[cfg].tot = append(aggs[cfg].tot, row.NormTotal)
			aggs[cfg].os = append(aggs[cfg].os, stats.Ratio(row.NormOS, row.NormTotal))
			cells = append(cells, stats.F(row.NormTotal, 1)+"x",
				stats.Pct(stats.Ratio(row.NormOS, row.NormTotal), 0))
		}
		t.AddRow(cells...)
	}
	cells := []string{"average"}
	for _, cfg := range cfgs {
		a := aggs[cfg]
		cells = append(cells, stats.F(stats.Mean(a.tot), 1)+"x", stats.Pct(stats.Mean(a.os), 0))
	}
	t.AddRow(cells...)
	return rows, t, nil
}

// Figure 14 ----------------------------------------------------------------

// Fig14Row reports scalability metrics at one core count.
type Fig14Row struct {
	Cores   int
	Variant core.Variant
	Mode    IntervalMode

	ReorderedPct float64 // average across apps
	LogMBps      float64
}

// Figure14 reproduces paper Figure 14: how the reordered fraction (a)
// and the log generation rate (b) scale with 4, 8 and 16 cores.
func (s *Suite) Figure14(coreCounts []int) ([]Fig14Row, *stats.Table, error) {
	if coreCounts == nil {
		coreCounts = []int{4, 8, 16}
	}
	var specs []Spec
	for _, nc := range coreCounts {
		specs = append(specs, s.crossApps(nc, allCfgs...)...)
	}
	if err := s.RecordAll(specs); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Figure 14: scalability with core count (averages across apps)",
		"config", "P4 reord", "P8 reord", "P16 reord", "P4 MB/s", "P8 MB/s", "P16 MB/s")
	cfgs := []vmCfg{{core.Base, I4K}, {core.Opt, I4K}, {core.Base, INF}, {core.Opt, INF}}
	var rows []Fig14Row
	for _, cfg := range cfgs {
		var reord, rate []string
		for _, nc := range coreCounts {
			var rs, ms []float64
			for _, app := range s.Apps() {
				run, err := s.Record(app, cfg.v, cfg.m, nc)
				if err != nil {
					return nil, nil, err
				}
				rs = append(rs, run.ReorderedFraction())
				ms = append(ms, run.LogRateMBps(s.opts.ClockGHz))
			}
			row := Fig14Row{Cores: nc, Variant: cfg.v, Mode: cfg.m,
				ReorderedPct: stats.Mean(rs), LogMBps: stats.Mean(ms)}
			rows = append(rows, row)
			reord = append(reord, stats.Pct(row.ReorderedPct, 3))
			rate = append(rate, stats.F(row.LogMBps, 1))
		}
		cells := append([]string{fmt.Sprintf("%v %v", cfg.v, cfg.m)}, reord...)
		cells = append(cells, rate...)
		t.AddRow(cells...)
	}
	return rows, t, nil
}

// Table 1 ------------------------------------------------------------------

// Table1 renders the architectural parameters actually used by the
// simulator, mirroring paper Table 1.
func (s *Suite) Table1() *stats.Table {
	mcfg := machine.DefaultConfig(s.opts.Cores)
	ccfg := cpu.DefaultConfig()
	rcfg := core.DefaultConfig(core.Opt)
	t := stats.NewTable("Table 1: architectural parameters", "parameter", "value")
	add := func(k, v string) { t.AddRow(k, v) }
	add("multicore", fmt.Sprintf("ring-based, MESI %s protocol, %d cores", mcfg.Mem.Protocol, s.opts.Cores))
	add("core", fmt.Sprintf("%d-way out-of-order superscalar @ %.0f GHz", ccfg.IssueWidth, s.opts.ClockGHz))
	add("ROB / Ld-St units / LSQ", fmt.Sprintf("%d entries / %d / %d entries", ccfg.ROBSize, ccfg.LdStUnits, ccfg.LSQSize))
	add("L1 cache", fmt.Sprintf("private, %d sets x %d ways x 32B lines (%dKB), %d MSHRs, %d-cycle round trip",
		mcfg.Mem.L1Sets, mcfg.Mem.L1Ways, mcfg.Mem.L1Sets*mcfg.Mem.L1Ways*32/1024, mcfg.Mem.L1MSHRs, mcfg.Mem.L1HitLat))
	add("L2 cache", fmt.Sprintf("shared, 512KB per core, %d-cycle lookup", mcfg.Mem.L2Lat))
	add("memory", fmt.Sprintf("%d-cycle round trip from L2", mcfg.Mem.MemLat))
	add("read & write sigs", fmt.Sprintf("each: %dx%d-bit Bloom filters, H3 hash", rcfg.SigArrays, rcfg.SigBits))
	add("TRAQ", fmt.Sprintf("%d entries, %d counted/cycle", rcfg.TRAQSize, rcfg.CountPerCycle))
	add("snoop table", fmt.Sprintf("%d arrays x %d entries x 16-bit counters", rcfg.SnoopArrays, rcfg.SnoopEntries))
	add("CISN / NMI field", fmt.Sprintf("16 bits / %d max", rcfg.NMICap))
	add("max interval", "4K instructions or unbounded (INF)")
	return t
}

// Extension: parallel replay potential --------------------------------------

// ParRow reports the parallel-replay estimate for one application.
type ParRow struct {
	App     string
	Variant core.Variant

	SeqNorm         float64 // sequential replay / recording time
	ParNorm         float64 // parallel replay / recording time
	Speedup         float64
	EdgesPer1KInstr float64
}

// ExtensionParallelReplay estimates the replay parallelism the logged
// Cyrus-style dependence edges expose (paper §5.4 expects "substantially
// faster replay" from parallel-replay-capable orderers; this quantifies
// it on our logs). INF intervals are used, as in the paper's sequential
// baseline.
func (s *Suite) ExtensionParallelReplay() ([]ParRow, *stats.Table, error) {
	if err := s.RecordAll(s.crossApps(s.opts.Cores,
		vmCfg{core.Opt, INF}, vmCfg{core.Base, INF})); err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Extension: parallel replay potential (INF intervals)",
		"app", "variant", "seq replay", "par replay", "speedup", "edges/1K instr")
	var rows []ParRow
	for _, app := range s.Apps() {
		for _, v := range []core.Variant{core.Opt, core.Base} {
			run, err := s.Record(app, v, INF, s.opts.Cores)
			if err != nil {
				return nil, nil, err
			}
			est := replay.EstimateParallel(replay.DefaultConfig(), run.Res.Log, run.Res.CPI())
			edges := 0
			for _, st := range run.Res.Log.Streams {
				for _, iv := range st.Intervals {
					edges += len(iv.Preds)
				}
			}
			rec := float64(run.Res.Cycles)
			row := ParRow{
				App: app, Variant: v,
				SeqNorm:         float64(est.SequentialCycles) / rec,
				ParNorm:         float64(est.ParallelCycles) / rec,
				Speedup:         est.Speedup(),
				EdgesPer1KInstr: float64(edges) * 1000 / float64(run.Instructions()),
			}
			rows = append(rows, row)
			t.AddRow(app, v.String(), stats.F(row.SeqNorm, 1)+"x", stats.F(row.ParNorm, 1)+"x",
				stats.F(row.Speedup, 2), stats.F(row.EdgesPer1KInstr, 1))
		}
	}
	return rows, t, nil
}

// Section 5.3: recording overhead ---------------------------------------------

// OverheadRow reports recording's execution-time cost for one app.
type OverheadRow struct {
	App          string
	PlainCycles  uint64 // same machine, no recorder attached
	RecordCycles uint64 // with RelaxReplay_Opt recording
	OverheadPct  float64
	TRAQStallPct float64 // dispatch stalls due to a full TRAQ
}

// Section53RecordingOverhead reproduces the paper's §5.3 claim: the
// execution overhead of recording is negligible. The only timing
// coupling between the recorder and the core is TRAQ-full dispatch
// stall (log-write bus contention is not modeled; the paper shows the
// Opt log rate is a trivial fraction of memory bandwidth, see Figure
// 11). We run each workload with and without the recorder and compare
// cycle counts.
func (s *Suite) Section53RecordingOverhead() ([]OverheadRow, *stats.Table, error) {
	apps := s.Apps()
	if err := s.RecordAll(s.crossApps(s.opts.Cores, vmCfg{core.Opt, I4K})); err != nil {
		return nil, nil, err
	}
	rows, err := parmap(s, len(apps), func(i int) (OverheadRow, error) {
		app := apps[i]
		run, err := s.Record(app, core.Opt, I4K, s.opts.Cores)
		if err != nil {
			return OverheadRow{}, err
		}
		// The same workload on the same machine without a recorder.
		mcfg := machine.DefaultConfig(s.opts.Cores)
		mcfg.Mem.Protocol = s.opts.Protocol
		m := machine.New(mcfg, run.W.Progs, nil)
		m.InitMemory(run.W.InitMem)
		for i, in := range run.W.Inputs {
			m.SetInputs(i, in)
		}
		if err := m.Run(); err != nil {
			return OverheadRow{}, err
		}
		var stall, cycles uint64
		for _, cs := range run.Res.CoreStats {
			stall += cs.DispatchStallTRAQ
			cycles += cs.Cycles
		}
		return OverheadRow{
			App:          app,
			PlainCycles:  m.Cycle(),
			RecordCycles: run.Res.Cycles,
			OverheadPct:  stats.Ratio(float64(run.Res.Cycles)-float64(m.Cycle()), float64(m.Cycle())),
			TRAQStallPct: stats.Ratio(float64(stall), float64(cycles)),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Section 5.3: recording overhead (RelaxReplay_Opt, 4K intervals)",
		"app", "no recorder", "recording", "overhead", "TRAQ stalls")
	var ovs, stalls []float64
	for _, row := range rows {
		ovs = append(ovs, row.OverheadPct)
		stalls = append(stalls, row.TRAQStallPct)
		t.AddRow(row.App, fmt.Sprint(row.PlainCycles), fmt.Sprint(row.RecordCycles),
			stats.Pct(row.OverheadPct, 2), stats.Pct(row.TRAQStallPct, 2))
	}
	t.AddRow("average", "", "", stats.Pct(stats.Mean(ovs), 2), stats.Pct(stats.Mean(stalls), 2))
	return rows, t, nil
}

// Motivation: SC recorders cannot capture RC executions ----------------------

// SCNaiveRow reports whether an SC-assuming chunk recorder's log
// replays the recorded RC execution faithfully.
type SCNaiveRow struct {
	App      string
	Diverged bool
	Detail   string
}

// MotivationSCRecorder demonstrates the paper's §2.2 motivation: a
// conventional chunk-based recorder that assumes accesses reach the
// coherence subsystem in program order (SC) silently mis-records
// relaxed-consistency executions. We record each workload with reorder
// detection disabled and attempt a verified replay; divergence is the
// expected outcome wherever reordering was visible.
func (s *Suite) MotivationSCRecorder() ([]SCNaiveRow, *stats.Table, error) {
	apps := s.Apps()
	rows, err := parmap(s, len(apps), func(i int) (SCNaiveRow, error) {
		app := apps[i]
		k, err := workload.ByName(app)
		if err != nil {
			return SCNaiveRow{}, err
		}
		w := k.Build(s.opts.Cores, s.opts.Scale)
		rcfg := core.DefaultConfig(core.Base)
		rcfg.AssumeSC = true
		mcfg := machine.DefaultConfig(s.opts.Cores)
		mcfg.Mem.Protocol = s.opts.Protocol
		res, err := core.Record(mcfg, rcfg, core.Workload{
			Name: w.Name, Progs: w.Progs, Inputs: w.Inputs, InitMem: w.InitMem,
		})
		if err != nil {
			return SCNaiveRow{}, err
		}
		row := SCNaiveRow{App: app}
		row.Diverged, row.Detail = scReplayDiverges(res, w)
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Motivation (paper §2.2): SC-assuming chunk recorder under RC",
		"app", "verified replay", "detail")
	diverged := 0
	for _, row := range rows {
		status := "ok (no visible reorder)"
		if row.Diverged {
			diverged++
			status = "DIVERGED"
		}
		t.AddRow(row.App, status, row.Detail)
	}
	t.AddRow("", fmt.Sprintf("%d/%d apps diverge", diverged, len(apps)), "")
	return rows, t, nil
}

func scReplayDiverges(res *core.Result, w workload.Workload) (bool, string) {
	// Value divergence often derails control flow structurally, so
	// any stage may be the one that fails.
	if _, err := res.Replay(replay.DefaultConfig(), w.Progs, w.InitMem); err != nil {
		return true, trim(err)
	}
	return false, ""
}

func trim(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return s
}

// Extension: consistency-model sweep -----------------------------------------

// ModelRow reports recording metrics under one consistency model.
type ModelRow struct {
	Model        cpu.MemModel
	OOOLoadsPct  float64 // Figure 1 metric, averaged over apps
	ReorderedPct float64 // Figure 9 metric (Opt, 4K), averaged
	BitsPer1K    float64
}

// ExtensionModelSweep records the suite under RC, TSO and SC cores —
// the paper's central claim is that RelaxReplay handles any
// consistency model with write atomicity; the reorder-dependent
// metrics should shrink as the model tightens, and every recording
// must still replay exactly (verification stays on).
func (s *Suite) ExtensionModelSweep() ([]ModelRow, *stats.Table, error) {
	t := stats.NewTable("Extension: consistency-model sweep (RelaxReplay_Opt, 4K intervals)",
		"model", "OOO loads", "reordered", "bits/1K")
	var rows []ModelRow
	apps := s.Apps()
	for _, model := range []cpu.MemModel{cpu.RC, cpu.TSO, cpu.SC} {
		type appMetrics struct{ ooo, reord, bits float64 }
		ms, err := parmap(s, len(apps), func(i int) (appMetrics, error) {
			k, err := workload.ByName(apps[i])
			if err != nil {
				return appMetrics{}, err
			}
			w := k.Build(s.opts.Cores, s.opts.Scale)
			mcfg := machine.DefaultConfig(s.opts.Cores)
			mcfg.Mem.Protocol = s.opts.Protocol
			mcfg.CPU.Model = model
			res, err := core.Record(mcfg, core.DefaultConfig(core.Opt), core.Workload{
				Name: w.Name, Progs: w.Progs, Inputs: w.Inputs, InitMem: w.InitMem,
			})
			if err != nil {
				return appMetrics{}, err
			}
			run := &Run{App: apps[i], Cores: s.opts.Cores, W: w, Res: res}
			if s.opts.Verify {
				if _, err := s.Replay(run); err != nil {
					return appMetrics{}, err
				}
			}
			l, _ := run.OOOFractions()
			return appMetrics{ooo: l, reord: run.ReorderedFraction(), bits: run.BitsPer1K()}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		var ooo, reord, bits []float64
		for _, m := range ms {
			ooo = append(ooo, m.ooo)
			reord = append(reord, m.reord)
			bits = append(bits, m.bits)
		}
		row := ModelRow{Model: model, OOOLoadsPct: stats.Mean(ooo),
			ReorderedPct: stats.Mean(reord), BitsPer1K: stats.Mean(bits)}
		rows = append(rows, row)
		t.AddRow(model.String(), stats.Pct(row.OOOLoadsPct, 1),
			stats.Pct(row.ReorderedPct, 3), stats.F(row.BitsPer1K, 0))
	}
	return rows, t, nil
}
