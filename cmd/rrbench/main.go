// Command rrbench regenerates the paper's evaluation tables and
// figures (Table 1, Figures 1 and 9-14) plus this repo's extension
// studies on the simulated multicore.
//
// Usage:
//
//	rrbench [-cores 8] [-scale 3] [-apps fft,lu,...] [-protocol snoopy|directory]
//	        [-fig all|table1,1,9,...] [-j N] [-noverify] [-quiet]
//	        [-faults spec@seed]
//
// -faults switches on chaos mode: after the selected figures, rrbench
// reruns the suite's workloads under a fault matrix (one isolated
// fault point per cell, plus a no-fault baseline per app) and requires
// every cell to end classified — replayed byte-identically, degraded
// with the loss itemized, rejected with a typed error, or stalled into
// a watchdog report. Any panic, hang, silent divergence or untyped
// error fails the run. -forensics PATH archives every degraded cell's
// structured divergence reports (see internal/replay.DivergenceReport)
// as one JSON document next to the matrix. -netchaos additionally runs
// the streaming chaos grid: real rrd/rrproc client-server pairs over
// localhost, crossing server behaviour x injected net.* transport
// fault, with the same every-cell-classified demand (see
// internal/experiments.NetChaosGrid).
//
// The -fig argument accepts a comma-separated subset of:
//
//	table1      architectural parameters (paper Table 1)
//	1           memory accesses performed out of program order (Figure 1)
//	9           accesses logged as reordered (Figure 9)
//	10          InorderBlock entries, Opt vs Base (Figure 10)
//	11          uncompressed log size and rate (Figure 11)
//	12          TRAQ occupancy average and distribution (Figure 12)
//	13          sequential replay time (Figure 13)
//	14          scalability with 4/8/16 cores (Figure 14)
//	parallel    parallel-replay potential of the logged edges (paper §5.4)
//	overhead    recording's execution-time overhead (paper §5.3)
//	motivation  SC-assuming chunk recorder diverging under RC (paper §2.2)
//	models      consistency-model sweep: RC, TSO, SC (extension)
//	all         everything above
//
// -j N records up to N runs concurrently (0, the default, uses
// GOMAXPROCS; -j 1 reproduces the serial harness). Output is
// deterministic regardless of -j: recordings are independent
// simulations and every table is assembled in a fixed order. Progress
// is a periodic one-line ETA summary on stderr (failures are always
// reported); -quiet silences it. Every recording is replay-verified
// against the recorded execution unless -noverify is given.
//
// -metrics writes the run's full metrics report (all simulator layers
// plus the suite's own accounting); -trace writes a Chrome trace_event
// timeline of the executed recordings; -pprof serves net/http/pprof.
//
// -benchjson PATH runs the record/encode/decode/replay pipeline
// benchmarks (the bodies of bench_pipeline_test.go plus the synthetic
// codec benchmarks) and writes the measurements as JSON — the
// committed BENCH_*.json files; schema in EXPERIMENTS.md — then exits
// without touching the figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"relaxreplay/internal/benchjson"
	"relaxreplay/internal/coherence"
	"relaxreplay/internal/experiments"
	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/telemetry"
)

// knownFigs lists the accepted -fig names in presentation order.
var knownFigs = []string{
	"table1", "1", "9", "10", "11", "12", "13", "14",
	"parallel", "overhead", "motivation", "models",
}

func main() {
	cores := flag.Int("cores", 8, "number of simulated cores")
	scale := flag.Int("scale", 3, "workload problem-size multiplier")
	apps := flag.String("apps", "", "comma-separated kernel subset (default: all)")
	protocol := flag.String("protocol", "snoopy", "coherence protocol: snoopy or directory")
	figs := flag.String("fig", "all", "figures to regenerate (comma-separated; see doc)")
	jobs := flag.Int("j", 0, "max concurrent recordings (0 = GOMAXPROCS, 1 = serial)")
	noverify := flag.Bool("noverify", false, "skip replay verification of each recording")
	quiet := flag.Bool("quiet", false, "suppress progress on stderr")
	faults := flag.String("faults", "", "chaos mode: run the fault matrix with this point[,point...]@seed spec")
	forensics := flag.String("forensics", "", "with -faults: write the chaos matrix's divergence forensics as JSON to this path")
	netchaos := flag.Bool("netchaos", false, "with -faults: also run the streaming chaos grid (server behaviour x net.* fault)")
	benchjsonPath := flag.String("benchjson", "", "run the pipeline benchmarks, write BENCH_*.json to this path, and exit")
	var tf telemetry.Flags
	tf.Register(nil)
	flag.Parse()

	if *benchjsonPath != "" {
		f, err := os.Create(*benchjsonPath)
		if err != nil {
			fatal(err)
		}
		if err := benchjson.Write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rrbench: wrote %s\n", *benchjsonPath)
		return
	}

	opts := experiments.DefaultOptions()
	opts.Cores = *cores
	opts.Scale = *scale
	opts.Verify = !*noverify
	opts.Parallelism = *jobs
	if *apps != "" {
		list, err := experiments.ParseApps(*apps)
		if err != nil {
			fatal(err)
		}
		opts.Apps = list
	}
	switch *protocol {
	case "snoopy":
		opts.Protocol = coherence.Snoopy
	case "directory":
		opts.Protocol = coherence.Directory
	default:
		fatal(fmt.Errorf("unknown protocol %q", *protocol))
	}
	tel, err := tf.New(*cores)
	if err != nil {
		fatal(err)
	}
	opts.Telemetry = tel
	if !*quiet {
		// The ETA line is derived from the suite's telemetry counters
		// (runs completed, mean run duration); when the user did not ask
		// for a metrics report, a private registry feeds just this line.
		etaTel := tel
		if etaTel == nil {
			etaTel = telemetry.New(telemetry.Options{Shards: *cores})
			opts.Telemetry = etaTel
		}
		reg := etaTel.Registry()
		completed := reg.Counter("suite.runs_completed")
		failed := reg.Counter("suite.runs_failed")
		runMillis := reg.Histogram("suite.run_duration_ms")
		workers := *jobs
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		start := time.Now()
		lastLine := start
		opts.Progress = func(ev experiments.ProgressEvent) {
			if !ev.Done {
				return
			}
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "rrbench: %v FAILED: %v\n", ev.Spec, ev.Err)
			}
			// One summary line at most every 2 seconds (plus the final
			// converged state when the pool drains).
			if time.Since(lastLine) < 2*time.Second && ev.Completed != ev.Started {
				return
			}
			lastLine = time.Now()
			done, fails := completed.Value(), failed.Value()
			mean := runMillis.Mean() / 1e3
			pending := uint64(ev.Started) - uint64(ev.Completed)
			eta := mean * float64(pending) / float64(workers)
			line := fmt.Sprintf("rrbench: %d/%d runs done, mean %.1fs/run, ~%.0fs left (%.0fs elapsed)",
				done, ev.Started, mean, eta, time.Since(start).Seconds())
			if fails > 0 {
				line += fmt.Sprintf(", %d FAILED", fails)
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		valid := f == "all"
		for _, k := range knownFigs {
			valid = valid || f == k
		}
		if !valid {
			fatal(fmt.Errorf("unknown figure %q (known: all, %s)", f, strings.Join(knownFigs, ", ")))
		}
		want[f] = true
	}
	if len(want) == 0 {
		fatal(fmt.Errorf("-fig %q selects nothing", *figs))
	}
	all := want["all"]
	s := experiments.NewSuite(opts)

	if all || want["table1"] {
		fmt.Println(s.Table1())
	}
	show := func(name string, f func() error) {
		if all || want[name] {
			if err := f(); err != nil {
				fatal(err)
			}
		}
	}
	show("1", func() error {
		_, t, err := s.Figure1()
		return show2(t, err)
	})
	show("9", func() error {
		_, t, err := s.Figure9()
		return show2(t, err)
	})
	show("10", func() error {
		_, t, err := s.Figure10()
		return show2(t, err)
	})
	show("11", func() error {
		_, t, err := s.Figure11()
		return show2(t, err)
	})
	show("12", func() error {
		_, t, err := s.Figure12()
		if err := show2(t, err); err != nil {
			return err
		}
		reps := []string{"fft", "lu", "radix", "ocean"}
		if opts.Apps != nil {
			reps = opts.Apps
			if len(reps) > 4 {
				reps = reps[:4]
			}
		}
		h, err := s.Figure12Histograms(reps)
		return show2(h, err)
	})
	show("13", func() error {
		_, t, err := s.Figure13()
		return show2(t, err)
	})
	show("14", func() error {
		counts := []int{4, 8, 16}
		_, t, err := s.Figure14(counts)
		return show2(t, err)
	})
	show("parallel", func() error {
		_, t, err := s.ExtensionParallelReplay()
		return show2(t, err)
	})
	show("overhead", func() error {
		_, t, err := s.Section53RecordingOverhead()
		return show2(t, err)
	})
	show("motivation", func() error {
		_, t, err := s.MotivationSCRecorder()
		return show2(t, err)
	})
	show("models", func() error {
		_, t, err := s.ExtensionModelSweep()
		return show2(t, err)
	})

	if *faults != "" {
		inj, err := faultinject.Parse(*faults)
		if err != nil {
			fatal(err)
		}
		res, cerr := s.ChaosMatrix(inj)
		if res != nil {
			fmt.Println(res.Table)
			if *forensics != "" {
				if err := writeChaosForensics(*forensics, res); err != nil {
					fatal(err)
				}
			}
		}
		if cerr != nil {
			fatal(cerr)
		}
		if *netchaos {
			nres, nerr := s.NetChaosGrid(inj)
			if nres != nil {
				fmt.Println(nres.Table)
			}
			if nerr != nil {
				fatal(nerr)
			}
		}
	}

	if err := tf.Flush(tel); err != nil {
		fatal(err)
	}
}

// writeChaosForensics archives every degraded cell's divergence
// reports as one JSON document. Always written when requested — an
// all-clean matrix yields an empty array — so CI can archive the file
// unconditionally.
func writeChaosForensics(path string, res *experiments.ChaosResult) error {
	type cellForensics struct {
		App       string                     `json:"app"`
		Point     string                     `json:"point"`
		Outcome   string                     `json:"outcome"`
		Detail    string                     `json:"detail,omitempty"`
		Forensics []*replay.DivergenceReport `json:"forensics"`
	}
	out := []cellForensics{}
	for _, c := range res.Cells {
		if len(c.Forensics) == 0 {
			continue
		}
		out = append(out, cellForensics{c.App, c.Point, c.Outcome, c.Detail, c.Forensics})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rrbench: wrote forensics for %d degraded cell(s) to %s\n", len(out), path)
	return nil
}

func show2(t fmt.Stringer, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(t)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrbench:", err)
	os.Exit(1)
}
