// Command rrlog reads, summarizes, diffs and traces a RelaxReplay log
// written by rrsim or exported by rrproc.
//
// Usage:
//
//	rrlog -log fft.rrlog [-patch] [-stats] [-dump [-core 3]]
//	      [-chrome trace.json [-app fft [-scale 3]]] [-faults spec@seed]
//	rrlog -log a.rrlog -diff b.rrlog
//	rrlog -log fft.rrlog -seek core:seq
//	rrlog -log fft.rrlog -verify
//	rrlog -log fft.rrlog -repair fixed.rrlog
//
// By default rrlog prints a summary: the per-core entry mix; the
// interval-size, fragmentation and reordered-entry histograms; and,
// when the log carries the provenance sideband of rrsim -provenance,
// each core's interval terminations by cause and the ten cache lines
// whose conflicts ended the most intervals. -stats adds storage
// accounting: the on-disk size and the log re-encoded as v3, against
// the architectural size Log.SizeBits(). -dump then prints every
// interval record.
//
// -chrome writes the recorded timeline as a Chrome trace_event file for
// chrome://tracing or Perfetto: one span per interval, between the
// core's logged timestamps, and the provenance terminate and reorder
// instants. When -app names the recorded workload (a kernel recorded
// at -scale, or litmus:<name>), rrlog also replays the log into the
// same trace: pid 0 is the recording, pid 1 the replay.
//
// -diff compares the decoded structure of two logs: header, per-core
// interval streams entry by entry, input streams and provenance
// sidebands, so any encoding of one execution diffs as identical to
// itself. Differences are itemized and exit with status 4.
//
// -seek core:seq fetches a single interval through the v3 segment
// index without scanning the file (falling back to a linear scan for
// v1/v2 files or a damaged index).
//
// Every other mode reads through the resyncing robust decoder (v3
// per-core streams decode in parallel), so a damaged log is inspected
// rather than rejected — but damage is never silent: rrlog prints a
// structured corruption summary on stderr and exits non-zero whenever
// the log is not intact. -verify does only the integrity check (exit 0
// iff clean); -repair additionally writes the surviving frames back
// out as a clean, fully-checksummed v3 log. -faults injects read-side
// faults (e.g. log.shortread@1) to exercise these paths.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"

	"relaxreplay"
	"relaxreplay/internal/provenance"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/stats"
	"relaxreplay/internal/telemetry"
)

func main() {
	logPath := flag.String("log", "", "log file written by rrsim -o")
	dump := flag.Bool("dump", false, "dump every interval record")
	onlyCore := flag.Int("core", -1, "restrict -dump to one core")
	patch := flag.Bool("patch", false, "apply the patching pass before inspecting")
	verify := flag.Bool("verify", false, "integrity-check only: report corruption, exit 0 iff the log is intact")
	repair := flag.String("repair", "", "write the surviving frames to this file as a clean log")
	statsFlag := flag.Bool("stats", false, "print storage statistics: on-disk and v3 bytes against the architectural size")
	seek := flag.String("seek", "", "core:seq — fetch one interval through the v3 segment index, no full scan")
	faults := flag.String("faults", "", "inject read-side faults: point[,point...]@seed")
	diff := flag.String("diff", "", "structurally compare -log against this second log; exit 4 when they differ")
	chrome := flag.String("chrome", "", "write the recorded timeline as a Chrome trace to this file")
	app := flag.String("app", "", "with -chrome: the recorded workload (kernel name or litmus:<name>); adds its replay to the trace")
	scale := flag.Int("scale", 3, "with -chrome -app: problem scale used at recording")
	flag.Parse()

	if *logPath == "" {
		fatal(fmt.Errorf("-log is required"))
	}
	inj, err := relaxreplay.ParseFaults(*faults)
	if err != nil {
		fatal(err)
	}
	f, size := open(*logPath)
	defer f.Close()

	if *seek != "" {
		var core int
		var seq uint64
		if _, err := fmt.Sscanf(*seek, "%d:%d", &core, &seq); err != nil {
			fatal(fmt.Errorf("bad -seek %q (want core:seq): %v", *seek, err))
		}
		ix, err := replaylog.OpenIndexed(f, size)
		if err != nil {
			fatal(err)
		}
		if !ix.Indexed() {
			fmt.Fprintf(os.Stderr, "rrlog: no usable index (%s); serving the seek from a linear scan\n", ix.Reason())
		}
		iv, err := ix.DecodeInterval(core, seq)
		if err != nil {
			fatal(err)
		}
		printInterval(core, iv)
		return
	}

	log, rep := load(f, size, *logPath, inj)
	corrupt := !rep.Clean()

	if *repair != "" {
		rf, err := os.Create(*repair)
		if err != nil {
			fatal(err)
		}
		if err := relaxreplay.WriteSalvagedLog(rf, log); err != nil {
			fatal(err)
		}
		if err := rf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("repaired: wrote %d intact interval(s) across %d core(s) to %s (v3)\n",
			countIntervals(log), len(log.Streams), *repair)
	}
	if *verify {
		if corrupt {
			os.Exit(1)
		}
		fmt.Println("log is intact: every frame checksummed and accounted for")
		return
	}
	if *repair != "" {
		// Repair is terminal: the salvage succeeded, so exit 0 even
		// though the input was damaged (the summary already said so).
		return
	}
	if *diff != "" {
		g, gsize := open(*diff)
		other, orep := load(g, gsize, *diff, nil)
		g.Close()
		diverged := diffLogs(log, other)
		for _, d := range diverged {
			fmt.Println("  " + d)
		}
		fmt.Printf("diff: %d divergence(s) between %s and %s\n", len(diverged), *logPath, *diff)
		if len(diverged) > 0 {
			os.Exit(4)
		}
		if corrupt || !orep.Clean() {
			os.Exit(1)
		}
		return
	}

	if *patch && !log.Patched {
		patched, dropped, err := log.PatchPartial()
		if err != nil {
			fatal(err)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "rrlog: WARNING: %d store(s) unpatchable (target intervals lost)\n", dropped)
		}
		log = patched
	}
	if err := log.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rrlog: WARNING: log fails validation:", err)
	}

	fmt.Printf("log: %d cores, variant %s, patched=%v\n", log.Cores, log.Variant, log.Patched)
	fmt.Printf("instructions: %d; uncompressed size: %d bits (%.1f bits/1K instructions)\n",
		log.Instructions(), log.SizeBits(),
		float64(log.SizeBits())*1000/float64(max(log.Instructions(), 1)))
	if *statsFlag {
		var v3 countWriter
		if err := replaylog.EncodeV3(&v3, log); err != nil {
			fmt.Fprintln(os.Stderr, "rrlog: WARNING: log not v3-encodable:", err)
		} else {
			arch := max(log.SizeBits()/8, 1)
			fmt.Printf("storage: on-disk %d B (format v%d); re-encoded v3 %d B against %d B architectural (SizeBits/8): ratio %.3f (v3/architectural)\n",
				size, rep.Version, v3.n, arch, float64(v3.n)/float64(arch))
		}
	}
	printSummary(log)
	printProvenance(log)

	if *chrome != "" {
		if err := writeChrome(*chrome, log, *app, *scale); err != nil {
			fatal(err)
		}
	}
	if *dump {
		for _, s := range log.Streams {
			if *onlyCore >= 0 && s.Core != *onlyCore {
				continue
			}
			for i := range s.Intervals {
				printInterval(s.Core, &s.Intervals[i])
			}
		}
	}
	if corrupt {
		os.Exit(1)
	}
}

// open opens a log file and returns it with its size. An rrproc
// journal ("RRJL") holds many sessions' logs, not one log; pointing
// rrlog at it is a common fleet-workflow slip that deserves a road
// sign rather than a resync-scan corruption report.
func open(path string) (*os.File, int64) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	var size int64
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	var magic [4]byte
	if n, _ := f.ReadAt(magic[:], 0); n == 4 && string(magic[:]) == "RRJL" {
		fatal(fmt.Errorf("%s is an rrproc journal, not a log file; list its sessions with `rrproc -journal %s -query`, then extract one with `rrproc -journal %s -export <id> -o <file>` and rerun rrlog on that", path, path, path))
	}
	return f, size
}

// load reads a log through the robust decoder. Damage is summarized
// on stderr; a log with nothing salvageable is fatal, with the
// summary as the diagnosis.
func load(f *os.File, size int64, path string, inj *relaxreplay.FaultInjector) (*relaxreplay.Log, *relaxreplay.CorruptionReport) {
	log, rep, err := relaxreplay.ReadLogRobust(inj.WrapReader(f, size))
	if err != nil {
		if rep != nil {
			fmt.Fprintln(os.Stderr, "rrlog: corruption summary:")
			fmt.Fprintln(os.Stderr, rep.Summary())
		}
		fatal(err)
	}
	if !rep.Clean() {
		fmt.Fprintf(os.Stderr, "rrlog: %s is DAMAGED; corruption summary:\n%s\n", path, rep.Summary())
	}
	return log, rep
}

// printSummary prints the per-core entry mix, then the shape of the
// intervals over all cores: instructions, InorderBlock runs (how
// fragmented replay's native execution is) and reordered, patched or
// dummy entries per interval.
func printSummary(log *relaxreplay.Log) {
	t := stats.NewTable("per-core summary",
		"core", "intervals", "instrs", "blocks", "reord ld", "reord st", "reord amo", "dummies", "preds")
	var sizeH, blocksH, reordH stats.Histogram
	for _, s := range log.Streams {
		var instrs uint64
		counts := map[replaylog.EntryType]int{}
		preds := 0
		for i := range s.Intervals {
			iv := &s.Intervals[i]
			instrs += iv.Instructions()
			preds += len(iv.Preds)
			var blocks uint64
			for _, e := range iv.Entries {
				counts[e.Type]++
				if e.Type == replaylog.InorderBlock {
					blocks++
				}
			}
			sizeH.Observe(iv.Instructions())
			blocksH.Observe(blocks)
			reordH.Observe(uint64(len(iv.Entries)) - blocks)
		}
		t.AddRow(fmt.Sprint(s.Core), fmt.Sprint(len(s.Intervals)), fmt.Sprint(instrs),
			fmt.Sprint(counts[replaylog.InorderBlock]),
			fmt.Sprint(counts[replaylog.ReorderedLoad]),
			fmt.Sprint(counts[replaylog.ReorderedStore]+counts[replaylog.PatchedStore]),
			fmt.Sprint(counts[replaylog.ReorderedAtomic]),
			fmt.Sprint(counts[replaylog.Dummy]),
			fmt.Sprint(preds))
	}
	fmt.Println()
	fmt.Println(t)
	for _, sec := range []struct {
		title string
		h     *stats.Histogram
	}{
		{"interval size (instructions)", &sizeH},
		{"fragmentation (inorder blocks per interval)", &blocksH},
		{"reordered/patched entries per interval", &reordH},
	} {
		ht := stats.NewTable(
			fmt.Sprintf("%s: %d intervals, mean %.1f, max %d", sec.title, sec.h.Count(), sec.h.Mean(), sec.h.Max()),
			"bucket", "count", "share", "")
		sec.h.Rows(ht)
		fmt.Println(ht)
	}
}

// printProvenance attributes every interval termination to its cause,
// per core, and ranks the ten cache lines whose remote accesses
// terminated the most intervals. Both read the provenance sideband.
func printProvenance(log *relaxreplay.Log) {
	if len(log.Provenance) == 0 {
		fmt.Println("termination attribution: log carries no provenance sideband (record with rrsim -provenance)")
		return
	}
	type lineStats struct {
		line          uint64
		count, writes int
		remotes       map[int32]bool
	}
	byLine := map[uint64]*lineStats{}
	t := stats.NewTable("interval termination attribution (from provenance)",
		"core", "intervals", "conflict", "size", "final", "reorders", "avg traq", "max snoop")
	for _, cp := range log.Provenance {
		var conf, size, final, reord int
		var traqSum, snoopMax uint64
		for _, r := range cp.Records {
			switch r.Cause {
			case provenance.CauseConflict:
				conf++
				ls := byLine[r.ConflictLine]
				if ls == nil {
					ls = &lineStats{line: r.ConflictLine, remotes: map[int32]bool{}}
					byLine[r.ConflictLine] = ls
				}
				ls.count++
				if r.ConflictWrite {
					ls.writes++
				}
				if r.RemoteCore >= 0 {
					ls.remotes[r.RemoteCore] = true
				}
			case provenance.CauseSize:
				size++
			case provenance.CauseFinal:
				final++
			}
			reord += len(r.Reorders)
			traqSum += uint64(r.TRAQOccupancy)
			snoopMax = max(snoopMax, uint64(r.SnoopNonzero))
		}
		t.AddRow(fmt.Sprint(cp.Core), fmt.Sprint(len(cp.Records)),
			fmt.Sprint(conf), fmt.Sprint(size), fmt.Sprint(final), fmt.Sprint(reord),
			stats.F(float64(traqSum)/float64(max(len(cp.Records), 1)), 1), fmt.Sprint(snoopMax))
	}
	fmt.Println(t)

	if len(byLine) == 0 {
		fmt.Println("conflict ranking: no conflict terminations recorded")
		return
	}
	var ranked []*lineStats
	for _, ls := range byLine {
		ranked = append(ranked, ls)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].line < ranked[j].line
	})
	ranked = ranked[:min(len(ranked), 10)]
	ct := stats.NewTable(
		fmt.Sprintf("top %d conflicting cache lines (%d distinct)", len(ranked), len(byLine)),
		"line", "terminations", "by write", "remote cores")
	for _, ls := range ranked {
		var rs []string
		for r := range ls.remotes {
			rs = append(rs, fmt.Sprint(r))
		}
		sort.Strings(rs)
		ct.AddRow(fmt.Sprintf("%#x", ls.line), fmt.Sprint(ls.count),
			fmt.Sprint(ls.writes), strings.Join(rs, ","))
	}
	fmt.Println(ct)
}

// diffLogs structurally compares two decoded logs and returns one line
// per divergence (capped; the count is exact, the listing is not).
func diffLogs(a, b *relaxreplay.Log) []string {
	const maxListed = 20
	var out []string
	n := 0
	report := func(format string, args ...any) {
		if n < maxListed {
			out = append(out, fmt.Sprintf(format, args...))
		} else if n == maxListed {
			out = append(out, "... (further divergences not listed)")
		}
		n++
	}

	if a.Cores != b.Cores {
		report("header: %d cores vs %d", a.Cores, b.Cores)
	}
	if a.Variant != b.Variant {
		report("header: variant %q vs %q", a.Variant, b.Variant)
	}
	if a.Patched != b.Patched {
		report("header: patched %v vs %v", a.Patched, b.Patched)
	}
	if !reflect.DeepEqual(a.Inputs, b.Inputs) {
		report("input streams differ")
	}

	streams := func(l *relaxreplay.Log) map[int]*replaylog.CoreLog {
		m := map[int]*replaylog.CoreLog{}
		for i := range l.Streams {
			m[l.Streams[i].Core] = &l.Streams[i]
		}
		return m
	}
	sa, sb := streams(a), streams(b)
	var coreIDs []int
	for c := range sa {
		coreIDs = append(coreIDs, c)
	}
	for c := range sb {
		if _, ok := sa[c]; !ok {
			coreIDs = append(coreIDs, c)
		}
	}
	sort.Ints(coreIDs)
	for _, c := range coreIDs {
		x, y := sa[c], sb[c]
		switch {
		case x == nil:
			report("core %d: stream only in second log (%d intervals)", c, len(y.Intervals))
			continue
		case y == nil:
			report("core %d: stream only in first log (%d intervals)", c, len(x.Intervals))
			continue
		}
		if len(x.Intervals) != len(y.Intervals) {
			report("core %d: %d intervals vs %d", c, len(x.Intervals), len(y.Intervals))
		}
		for i := 0; i < min(len(x.Intervals), len(y.Intervals)); i++ {
			if !reflect.DeepEqual(x.Intervals[i], y.Intervals[i]) {
				report("core %d interval %d (seq %d): records differ", c, i, x.Intervals[i].Seq)
			}
		}
	}

	if !reflect.DeepEqual(a.Provenance, b.Provenance) {
		report("provenance sidebands differ")
	}
	return out
}

// writeChrome writes the recorded timeline as a Chrome trace: one span
// per interval, from the core's previous logged timestamp to its own,
// and the provenance instants where the sideband has them. With app,
// it replays the log into the same tracer, whose replayer adds the
// pid-1 timeline on its modeled clock.
func writeChrome(path string, log *relaxreplay.Log, app string, scale int) error {
	tel := relaxreplay.NewTelemetry(relaxreplay.TelemetryOptions{Shards: log.Cores, Trace: true})
	tr := tel.Tracer()
	tr.NameProcess(telemetry.PidRecord, "recorded timeline")
	for _, s := range log.Streams {
		tr.NameThread(telemetry.PidRecord, s.Core, fmt.Sprintf("core %d", s.Core))
		var prev uint64
		for i := range s.Intervals {
			iv := &s.Intervals[i]
			tr.Complete(telemetry.PidRecord, s.Core, "log", "interval", prev, iv.Timestamp,
				map[string]any{"seq": iv.Seq, "instrs": iv.Instructions(), "entries": len(iv.Entries)})
			prev = iv.Timestamp
		}
	}
	for _, cp := range log.Provenance {
		for _, r := range cp.Records {
			args := map[string]any{"seq": r.Seq, "traq": r.TRAQOccupancy}
			if r.Cause == provenance.CauseConflict {
				args["line"] = fmt.Sprintf("%#x", r.ConflictLine)
				args["remote"] = r.RemoteCore
			}
			tr.Instant(telemetry.PidRecord, cp.Core, "provenance",
				"terminate:"+r.Cause.String(), r.Cycle, args)
			for _, ro := range r.Reorders {
				tr.Instant(telemetry.PidRecord, cp.Core, "provenance",
					"reorder:"+provenance.ReorderKindString(ro.Kind), ro.Cycle,
					map[string]any{"offset": ro.Offset})
			}
		}
	}

	what := "recorded timeline"
	if app != "" {
		// Logs do not embed programs, but they do record the core
		// count; the problem scale must come from -scale.
		w, _, err := relaxreplay.WorkloadByName(app, log.Cores, scale)
		if err != nil {
			return err
		}
		if log.Cores != len(w.Progs) {
			return fmt.Errorf("log has %d cores but %s has %d threads", log.Cores, app, len(w.Progs))
		}
		// Partial mode keeps a damaged log renderable; degradations
		// are surfaced, not hidden.
		res, err := relaxreplay.ReplayLogPartialWith(log, w, tel)
		if err != nil {
			return fmt.Errorf("replay for trace export: %w", err)
		}
		for _, d := range res.Degradations {
			fmt.Fprintf(os.Stderr, "rrlog: replay degraded: %s\n", d.String())
		}
		what = fmt.Sprintf("recorded timeline + replay of %d intervals", res.Intervals)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", path, what)
	return nil
}

// printInterval renders one interval record the way -dump does; -seek
// shares it for its single-interval output.
func printInterval(core int, iv *replaylog.Interval) {
	fmt.Printf("core %d interval %d (cisn %d, ts %d", core, iv.Seq, iv.CISN, iv.Timestamp)
	for _, p := range iv.Preds {
		fmt.Printf(", after c%d/i%d", p.Core, p.Seq)
	}
	fmt.Print(")\n")
	for _, e := range iv.Entries {
		switch e.Type {
		case replaylog.InorderBlock:
			fmt.Printf("  InorderBlock      %d instructions\n", e.Size)
		case replaylog.ReorderedLoad:
			fmt.Printf("  ReorderedLoad     value=%d\n", e.Value)
		case replaylog.ReorderedStore:
			fmt.Printf("  ReorderedStore    [%#x]=%d offset=%d\n", e.Addr, e.Value, e.Offset)
		case replaylog.PatchedStore:
			fmt.Printf("  PatchedStore      [%#x]=%d\n", e.Addr, e.Value)
		case replaylog.ReorderedAtomic:
			fmt.Printf("  ReorderedAtomic   [%#x] loaded=%d stored=%d wrote=%v offset=%d\n",
				e.Addr, e.Value, e.StoreValue, e.DidWrite, e.Offset)
		case replaylog.Dummy:
			fmt.Printf("  Dummy             (skip one store)\n")
		}
	}
}

// countWriter counts bytes; -stats uses it to size the v3 re-encoding
// without holding it in memory.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// countIntervals sums intervals across all streams.
func countIntervals(log *relaxreplay.Log) int {
	n := 0
	for _, s := range log.Streams {
		n += len(s.Intervals)
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrlog:", err)
	os.Exit(1)
}
