// Command rrreplay deterministically replays a log written by rrsim.
// The workload binary is rebuilt from its name (logs do not embed
// programs, exactly as the paper's logs do not embed the application),
// so -app/-cores/-scale must match the recording.
//
// Usage:
//
//	rrreplay -log fft.rrlog -app fft [-cores 8] [-scale 3]
//	         [-partial] [-forensics report.json] [-faults spec@seed]
//
// -forensics writes a JSON array of structured divergence reports to
// the given path: one report per abandoned core (under -partial) or
// for the strict-mode divergence, each carrying the expected-vs-actual
// mismatch, a context window of the preceding intervals across cores,
// and — when the log carries a provenance sideband — why the diverged
// interval terminated during recording. The file is always written: a
// clean replay yields an empty array, so automation can rely on its
// existence.
//
// Strict mode (the default) reads and replays the log with every
// integrity check fatal: a corrupt frame, a truncated file or a
// divergence exits non-zero with a typed, classified error. -partial
// switches on graceful degradation: the robust decoder salvages the
// intact frames, the surviving prefix is replayed, and every
// abandoned core is itemized — the exit is still non-zero so damage
// is never mistaken for success. -faults injects read-side faults
// (e.g. log.shortread) for exercising those paths.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"relaxreplay"
	"relaxreplay/internal/telemetry"
)

func main() {
	logPath := flag.String("log", "", "log file written by rrsim -o")
	app := flag.String("app", "fft", "workload recorded: kernel name or litmus:<name>")
	cores := flag.Int("cores", 8, "core count used at recording")
	scale := flag.Int("scale", 3, "problem scale used at recording")
	partial := flag.Bool("partial", false, "graceful degradation: salvage a damaged log and replay the surviving prefix")
	forensics := flag.String("forensics", "", "write divergence forensics as a JSON array to this path (empty array when clean)")
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
	st, _ := f.Stat()
	var size int64
	if st != nil {
		size = st.Size()
	}
	rd := inj.WrapReader(f, size)

	var log *relaxreplay.Log
	var rep *relaxreplay.CorruptionReport
	if *partial {
		log, rep, err = relaxreplay.ReadLogRobust(rd)
	} else {
		log, err = relaxreplay.ReadLog(rd)
	}
	if err != nil {
		fatal(err)
	}
	if rep != nil && !rep.Clean() {
		fmt.Fprintf(os.Stderr, "rrreplay: log damaged, salvaged what survives:\n%s\n", rep.Summary())
	}

	w, check, err := relaxreplay.WorkloadByName(*app, *cores, *scale)
	if err != nil {
		fatal(err)
	}
	if log.Cores != len(w.Progs) {
		fatal(fmt.Errorf("log has %d cores but workload has %d threads (check -cores/-scale)",
			log.Cores, len(w.Progs)))
	}

	tel, err := tf.New(log.Cores)
	if err != nil {
		fatal(err)
	}
	var res *relaxreplay.ReplayResult
	if *partial {
		res, err = relaxreplay.ReplayLogPartialWith(log, w, tel)
	} else {
		res, err = relaxreplay.ReplayLogWith(log, w, tel)
	}
	if err != nil {
		// Strict-mode divergence: write the forensic report for the one
		// divergence before failing, so the evidence survives the exit.
		var div *relaxreplay.DivergedError
		if *forensics != "" && errors.As(err, &div) {
			reports := relaxreplay.DivergenceForensics(log, []relaxreplay.Degradation{
				{Core: div.Core, Interval: div.Interval, Seq: div.Seq, Cause: div.Cause}})
			if werr := writeForensics(*forensics, reports); werr != nil {
				fmt.Fprintln(os.Stderr, "rrreplay:", werr)
			}
		}
		fatal(err)
	}
	fmt.Printf("replayed %d intervals, modeled time %d cycles (user %d + OS %d)\n",
		res.Intervals, res.Timing.Total(), res.Timing.UserCycles, res.Timing.OSCycles)
	for _, d := range res.Degradations {
		fmt.Fprintf(os.Stderr, "rrreplay: degraded: %s\n", d.String())
	}
	degraded := len(res.Degradations) > 0 || (rep != nil && !rep.Clean())
	if *forensics != "" {
		reports := relaxreplay.DivergenceForensics(log, res.Degradations)
		if len(reports) == 0 && rep != nil && !rep.Clean() {
			// Degraded purely from log damage: replay itself stayed on
			// its streams, so the damage summary is the forensic record.
			reports = append(reports, relaxreplay.DamageForensics(rep.Summary()))
		}
		if err := writeForensics(*forensics, reports); err != nil {
			fatal(err)
		}
	}
	if check != nil && !degraded {
		if err := check(res.FinalMemory); err != nil {
			fatal(fmt.Errorf("replayed memory fails the workload oracle: %w", err))
		}
		fmt.Println("replayed memory passes the workload oracle")
	}
	if err := tf.Flush(tel); err != nil {
		fatal(err)
	}
	if degraded {
		// Partial success is still reported as a failure exit so
		// automation never mistakes a salvaged replay for a clean one.
		os.Exit(3)
	}
}

// writeForensics serializes the divergence reports as a JSON array.
// The file is written even when there is nothing to report (an empty
// array), so automation can rely on its existence after any run.
func writeForensics(path string, reports []*relaxreplay.DivergenceReport) error {
	if reports == nil {
		reports = []*relaxreplay.DivergenceReport{}
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rrreplay: wrote %d forensic report(s) to %s\n", len(reports), path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrreplay:", err)
	os.Exit(1)
}
