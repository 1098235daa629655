// Command rrlog inspects a RelaxReplay log written by rrsim.
//
// Usage:
//
//	rrlog -log fft.rrlog [-dump] [-core 3] [-patch] [-stats]
//	      [-seek core:seq] [-verify] [-repair fixed.rrlog]
//	      [-faults spec@seed] [-metrics report.txt] [-trace trace.json]
//
// Without -dump it prints summary statistics (per-core interval and
// entry counts, size accounting, reorder histogram, and — when the log
// carries a provenance sideband from rrsim -provenance — a
// per-core termination-cause table; rrtrace analyzes the sideband in
// depth). With -dump it prints every interval record in a readable
// form. -stats adds storage
// accounting: the on-disk size next to the log re-encoded in the v2
// and compressed v3 formats, with the v3/v2 compression ratio. -seek
// core:seq fetches a single interval through the v3 segment index
// without scanning the file (falling back to a linear scan for v1/v2
// files or a damaged index). -metrics writes the log's entry-type
// accounting as a metrics report; -trace exports the recorded interval
// timeline (reconstructed from the logged interval timestamps) as
// Chrome trace_event JSON for chrome://tracing or Perfetto.
//
// Every mode reads through the resyncing robust decoder (v3 per-core
// streams decode in parallel), so a damaged log is inspected rather
// than rejected — but damage is never silent: rrlog prints a
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
	statsFlag := flag.Bool("stats", false, "print storage statistics: encoded v2/v3 sizes and compression ratio")
	seek := flag.String("seek", "", "core:seq — fetch one interval through the v3 segment index, no full scan")
	faults := flag.String("faults", "", "inject read-side faults: point[,point...]@seed")
	var tf telemetry.Flags
	tf.Register(nil)
	flag.Parse()

	if *logPath == "" {
		fatal(fmt.Errorf("-log is required"))
	}
	inj, err := relaxreplay.ParseFaults(*faults)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var size int64
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	// An rrproc journal ("RRJL") holds many sessions' logs, not one
	// log; pointing rrlog at it is a common fleet-workflow slip that
	// deserves a road sign rather than a resync-scan corruption report.
	var magic [4]byte
	if n, _ := f.ReadAt(magic[:], 0); n == 4 && string(magic[:]) == "RRJL" {
		fatal(fmt.Errorf("%s is an rrproc journal, not a log file; list its sessions with `rrproc -journal %s -query`, then extract one with `rrproc -journal %s -export <id> -o <file>` and rerun rrlog on that", *logPath, *logPath, *logPath))
	}

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

	log, rep, err := relaxreplay.ReadLogRobust(inj.WrapReader(f, size))
	if err != nil {
		// Nothing salvageable: the summary is the diagnosis.
		if rep != nil {
			fmt.Fprintln(os.Stderr, "rrlog: corruption summary:")
			fmt.Fprintln(os.Stderr, rep.Summary())
		}
		fatal(err)
	}
	corrupt := !rep.Clean()
	if corrupt {
		fmt.Fprintln(os.Stderr, "rrlog: log is DAMAGED; corruption summary:")
		fmt.Fprintln(os.Stderr, rep.Summary())
	}

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
		float64(log.SizeBits())*1000/float64(max64(log.Instructions(), 1)))

	if *statsFlag {
		var v2n, v3n countWriter
		if err := replaylog.Encode(&v2n, log); err != nil {
			fatal(err)
		}
		if err := replaylog.EncodeV3(&v3n, log); err != nil {
			fmt.Fprintln(os.Stderr, "rrlog: WARNING: log not v3-encodable:", err)
		} else {
			fmt.Printf("storage: on-disk %d B (format v%d); re-encoded v2 %d B, v3 %d B; compression ratio %.3f (v3/v2)\n",
				size, rep.Version, v2n.n, v3n.n, float64(v3n.n)/float64(v2n.n))
		}
	}

	if len(log.Provenance) > 0 {
		pt := stats.NewTable("provenance sideband",
			"core", "records", "conflict", "size", "final", "reorders")
		for _, cp := range log.Provenance {
			var conf, size, final, reord int
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
			}
			pt.AddRow(fmt.Sprint(cp.Core), fmt.Sprint(len(cp.Records)),
				fmt.Sprint(conf), fmt.Sprint(size), fmt.Sprint(final), fmt.Sprint(reord))
		}
		fmt.Println()
		fmt.Println(pt)
	}

	t := stats.NewTable("per-core summary",
		"core", "intervals", "instrs", "blocks", "reord ld", "reord st", "reord amo", "dummies", "preds")
	for _, s := range log.Streams {
		var instrs uint64
		counts := map[replaylog.EntryType]int{}
		preds := 0
		for i := range s.Intervals {
			iv := &s.Intervals[i]
			instrs += iv.Instructions()
			preds += len(iv.Preds)
			for _, e := range iv.Entries {
				counts[e.Type]++
			}
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

	tel, err := tf.New(log.Cores)
	if err != nil {
		fatal(err)
	}
	if tel != nil {
		logTelemetry(tel, log)
		if err := tf.Flush(tel); err != nil {
			fatal(err)
		}
	}

	if !*dump {
		if corrupt {
			os.Exit(1)
		}
		return
	}
	for _, s := range log.Streams {
		if *onlyCore >= 0 && s.Core != *onlyCore {
			continue
		}
		for i := range s.Intervals {
			printInterval(s.Core, &s.Intervals[i])
		}
	}
	if corrupt {
		os.Exit(1)
	}
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

// countWriter counts bytes; -stats uses it to size re-encodings
// without holding them in memory.
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

// logTelemetry fills the registry with the log's entry-type accounting
// and, when tracing is on, reconstructs the recorded interval timeline
// from the logged interval timestamps: each interval becomes a
// complete event spanning from the core's previous interval timestamp
// to its own.
func logTelemetry(tel *telemetry.Telemetry, log *relaxreplay.Log) {
	reg := tel.Registry()
	intervals := reg.Counter("log.intervals")
	blocks := reg.Counter("log.entries.inorder_blocks")
	reordLd := reg.Counter("log.entries.reordered_loads")
	reordSt := reg.Counter("log.entries.reordered_stores")
	reordAmo := reg.Counter("log.entries.reordered_atomics")
	patchedSt := reg.Counter("log.entries.patched_stores")
	dummies := reg.Counter("log.entries.dummies")
	ivInstrs := reg.Histogram("log.interval_instrs")

	tr := tel.Tracer()
	if tr.Enabled() {
		tr.NameProcess(telemetry.PidRecord, "recorded timeline")
	}
	for _, s := range log.Streams {
		if tr.Enabled() {
			tr.NameThread(telemetry.PidRecord, s.Core, fmt.Sprintf("core %d", s.Core))
		}
		var prev uint64
		for i := range s.Intervals {
			iv := &s.Intervals[i]
			intervals.Inc(s.Core)
			ivInstrs.Observe(s.Core, iv.Instructions())
			for _, e := range iv.Entries {
				switch e.Type {
				case replaylog.InorderBlock:
					blocks.Inc(s.Core)
				case replaylog.ReorderedLoad:
					reordLd.Inc(s.Core)
				case replaylog.ReorderedStore:
					reordSt.Inc(s.Core)
				case replaylog.ReorderedAtomic:
					reordAmo.Inc(s.Core)
				case replaylog.PatchedStore:
					patchedSt.Inc(s.Core)
				case replaylog.Dummy:
					dummies.Inc(s.Core)
				}
			}
			if tr.Enabled() {
				tr.Complete(telemetry.PidRecord, s.Core, "log", "interval", prev, iv.Timestamp,
					map[string]any{"cisn": iv.CISN, "instrs": iv.Instructions(), "entries": len(iv.Entries)})
				prev = iv.Timestamp
			}
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrlog:", err)
	os.Exit(1)
}
