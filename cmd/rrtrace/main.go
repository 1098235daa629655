// Command rrtrace analyzes RelaxReplay logs: interval-size and
// fragmentation histograms, stall-cause attribution per core from the
// provenance sideband, top conflicting cache lines, a structural diff
// of two logs, and a merged record+replay Chrome trace.
//
// Usage:
//
//	rrtrace -log fft.rrlog                  # histograms + stalls + conflicts
//	rrtrace -log fft.rrlog -hist            # histograms only
//	rrtrace -log fft.rrlog -stalls          # termination-cause attribution only
//	rrtrace -log fft.rrlog -conflicts 10    # top conflicting lines only
//	rrtrace -log a.rrlog -diff b.rrlog      # structural diff; exit 4 when they differ
//	rrtrace -log fft.rrlog -chrome t.json -app fft [-cores 8] [-scale 3]
//
// With no mode flag, every analysis section is printed. The stall and
// conflict sections need the provenance sideband (record with rrsim
// -provenance); without it they degrade to a note, never an error.
//
// -diff decodes both files (any mix of v1/v2/v3) and compares the
// decoded structure — header, per-core interval streams entry by
// entry, input streams, and provenance sidebands — so a log always
// diffs as identical to itself regardless of encoding. Differences
// are itemized and exit with status 4.
//
// -chrome merges the recorded timeline (reconstructed from the logged
// interval timestamps, plus provenance terminate/reorder instants when
// present) with a live replay of the log into one Chrome trace_event
// file: pid 0 is the recording, pid 1 the replay.
//
// Every read goes through the resyncing robust decoder; a damaged log
// is analyzed rather than rejected, with the corruption summarized on
// stderr.
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
	hist := flag.Bool("hist", false, "print interval-size and fragmentation histograms")
	stalls := flag.Bool("stalls", false, "print per-core interval termination attribution (needs provenance)")
	conflicts := flag.Int("conflicts", 0, "print the top N conflicting cache lines (needs provenance)")
	diff := flag.String("diff", "", "structurally compare -log against this second log")
	chrome := flag.String("chrome", "", "write a merged record+replay Chrome trace to this file")
	app := flag.String("app", "", "with -chrome: workload recorded (kernel name or litmus:<name>)")
	cores := flag.Int("cores", 8, "with -chrome: core count used at recording")
	scale := flag.Int("scale", 3, "with -chrome: problem scale used at recording")
	flag.Parse()

	if *logPath == "" {
		fatal(fmt.Errorf("-log is required"))
	}
	log := loadLog(*logPath)

	if *diff != "" {
		other := loadLog(*diff)
		diverged := diffLogs(log, other)
		for _, d := range diverged {
			fmt.Println("  " + d)
		}
		fmt.Printf("diff: %d divergence(s) between %s and %s\n", len(diverged), *logPath, *diff)
		if len(diverged) > 0 {
			os.Exit(4)
		}
		return
	}
	if *chrome != "" {
		if err := writeChromeTrace(*chrome, log, *app, *cores, *scale); err != nil {
			fatal(err)
		}
		return
	}

	// No mode flag: run every analysis section.
	all := !*hist && !*stalls && *conflicts == 0
	topN := *conflicts
	if all {
		topN = 10
	}
	if all || *hist {
		printHistograms(log)
	}
	if all || *stalls {
		printStalls(log)
	}
	if all || *conflicts > 0 {
		printConflicts(log, topN)
	}
}

// loadLog reads a log through the robust parallel decoder, summarizing
// any damage on stderr instead of rejecting the file.
func loadLog(path string) *relaxreplay.Log {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	log, rep, err := relaxreplay.ReadLogRobust(f)
	if err != nil {
		if rep != nil {
			fmt.Fprintln(os.Stderr, "rrtrace: corruption summary:")
			fmt.Fprintln(os.Stderr, rep.Summary())
		}
		fatal(err)
	}
	if !rep.Clean() {
		fmt.Fprintf(os.Stderr, "rrtrace: %s is damaged, analyzing what survives:\n%s\n", path, rep.Summary())
	}
	return log
}

// printHistograms renders the interval-size and fragmentation shape of
// the log: instructions per interval, InorderBlock runs per interval
// (how fragmented replay's native execution is), and reordered/patched
// entries per interval.
func printHistograms(log *relaxreplay.Log) {
	var sizeH, blocksH, reordH stats.Histogram
	for _, s := range log.Streams {
		for i := range s.Intervals {
			iv := &s.Intervals[i]
			sizeH.Observe(iv.Instructions())
			var blocks, reord uint64
			for _, e := range iv.Entries {
				if e.Type == replaylog.InorderBlock {
					blocks++
				} else {
					reord++
				}
			}
			blocksH.Observe(blocks)
			reordH.Observe(reord)
		}
	}
	section := func(title string, h *stats.Histogram) {
		t := stats.NewTable(
			fmt.Sprintf("%s: %d intervals, mean %.1f, max %d", title, h.Count(), h.Mean(), h.Max()),
			"bucket", "count", "share", "")
		h.Rows(t)
		fmt.Println(t)
	}
	section("interval size (instructions)", &sizeH)
	section("fragmentation (inorder blocks per interval)", &blocksH)
	section("reordered/patched entries per interval", &reordH)
}

// printStalls attributes every interval termination to its cause, per
// core, from the provenance sideband.
func printStalls(log *relaxreplay.Log) {
	if len(log.Provenance) == 0 {
		fmt.Println("stall attribution: log carries no provenance sideband (record with rrsim -provenance)")
		fmt.Println()
		return
	}
	t := stats.NewTable("interval termination attribution (from provenance)",
		"core", "intervals", "conflict", "size", "final", "reorders", "avg traq", "max snoop")
	for _, cp := range log.Provenance {
		var conf, size, final, reord int
		var traqSum, snoopMax uint64
		for _, r := range cp.Records {
			switch r.Cause {
			case provenance.CauseConflict:
				conf++
			case provenance.CauseSize:
				size++
			case provenance.CauseFinal:
				final++
			}
			reord += len(r.Reorders)
			traqSum += uint64(r.TRAQOccupancy)
			if uint64(r.SnoopNonzero) > snoopMax {
				snoopMax = uint64(r.SnoopNonzero)
			}
		}
		avgTraq := 0.0
		if len(cp.Records) > 0 {
			avgTraq = float64(traqSum) / float64(len(cp.Records))
		}
		t.AddRow(fmt.Sprint(cp.Core), fmt.Sprint(len(cp.Records)),
			fmt.Sprint(conf), fmt.Sprint(size), fmt.Sprint(final),
			fmt.Sprint(reord), stats.F(avgTraq, 1), fmt.Sprint(snoopMax))
	}
	fmt.Println(t)
}

// printConflicts ranks the cache lines whose remote accesses terminated
// the most intervals.
func printConflicts(log *relaxreplay.Log, topN int) {
	type lineStats struct {
		line    uint64
		count   int
		writes  int
		remotes map[int32]bool
	}
	byLine := map[uint64]*lineStats{}
	for _, cp := range log.Provenance {
		for _, r := range cp.Records {
			if r.Cause != provenance.CauseConflict {
				continue
			}
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
		}
	}
	if len(byLine) == 0 {
		if len(log.Provenance) == 0 {
			fmt.Println("conflict ranking: log carries no provenance sideband (record with rrsim -provenance)")
		} else {
			fmt.Println("conflict ranking: no conflict terminations recorded")
		}
		fmt.Println()
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
	if len(ranked) > topN {
		ranked = ranked[:topN]
	}
	t := stats.NewTable(
		fmt.Sprintf("top %d conflicting cache lines (%d distinct)", len(ranked), len(byLine)),
		"line", "terminations", "by write", "remote cores")
	for _, ls := range ranked {
		var rs []string
		for r := range ls.remotes {
			rs = append(rs, fmt.Sprint(r))
		}
		sort.Strings(rs)
		t.AddRow(fmt.Sprintf("%#x", ls.line), fmt.Sprint(ls.count),
			fmt.Sprint(ls.writes), strings.Join(rs, ","))
	}
	fmt.Println(t)
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
		limit := len(x.Intervals)
		if len(y.Intervals) < limit {
			limit = len(y.Intervals)
		}
		for i := 0; i < limit; i++ {
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

// writeChromeTrace merges the recorded timeline (from the logged
// interval timestamps and the provenance sideband) with a live replay
// of the log into one Chrome trace_event file.
func writeChromeTrace(path string, log *relaxreplay.Log, app string, cores, scale int) error {
	if app == "" {
		return fmt.Errorf("-chrome needs -app (the recorded workload; logs do not embed programs)")
	}
	w, _, err := relaxreplay.WorkloadByName(app, cores, scale)
	if err != nil {
		return err
	}
	if log.Cores != len(w.Progs) {
		return fmt.Errorf("log has %d cores but workload has %d threads (check -cores/-scale)",
			log.Cores, len(w.Progs))
	}

	tel := relaxreplay.NewTelemetry(relaxreplay.TelemetryOptions{Shards: log.Cores, Trace: true})
	tr := tel.Tracer()
	tr.NameProcess(telemetry.PidRecord, "recorded timeline")

	// Record side: one complete event per interval, spanning from the
	// core's previous interval timestamp to its own, plus provenance
	// instants where the sideband has them.
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

	// Replay side: the replayer itself emits pid-1 events into the same
	// tracer on its modeled clock. Partial mode keeps a damaged log
	// renderable; degradations are surfaced, not hidden.
	res, err := relaxreplay.ReplayLogPartialWith(log, w, tel)
	if err != nil {
		return fmt.Errorf("replay for trace export: %w", err)
	}
	for _, d := range res.Degradations {
		fmt.Fprintf(os.Stderr, "rrtrace: replay degraded: %s\n", d.String())
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
	fmt.Printf("wrote %s: recorded timeline + replay of %d intervals\n", path, res.Intervals)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrtrace:", err)
	os.Exit(1)
}
