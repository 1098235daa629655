// Command rrsim records one workload under RelaxReplay and writes the
// interval log.
//
// Usage:
//
//	rrsim -app fft [-cores 8] [-scale 3] [-variant opt|base]
//	      [-interval 4k|inf] [-protocol snoopy|directory]
//	      [-o fft.rrlog] [-provenance] [-verify] [-faults spec@seed]
//
// -o writes the log in format v3, compressed and indexed.
//
// -provenance captures the per-interval provenance sideband (why each
// interval terminated, conflicting lines and remote cores, reorder
// instants, queue occupancy). Capture never changes the interval log;
// the sideband is persisted in the -o file and consumed by rrtrace's
// stall/conflict attribution and rrreplay's divergence forensics.
//
// -faults injects deterministic faults (see internal/faultinject):
// interconnect and flush-crash points perturb the recording itself —
// possibly failing it loudly — and log-byte points corrupt the file
// written by -o, for exercising rrlog/rrreplay's corruption handling.
//
// The available applications are the bundled SPLASH-2-analog kernels
// (see rrsim -list) and the litmus tests (prefix "litmus:", e.g.
// "litmus:sb").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"relaxreplay"
	"relaxreplay/internal/telemetry"
)

func main() {
	var tf telemetry.Flags
	tf.Register(nil)
	app := flag.String("app", "fft", "workload: kernel name or litmus:<name>")
	files := flag.String("file", "", "run assembly file(s) instead of -app (comma-separated: one per core, or one file replicated)")
	cores := flag.Int("cores", 8, "number of simulated cores (kernels only)")
	scale := flag.Int("scale", 3, "problem-size multiplier (kernels only)")
	variant := flag.String("variant", "opt", "recorder variant: opt or base")
	interval := flag.String("interval", "4k", "max interval size: 4k or inf")
	protocol := flag.String("protocol", "snoopy", "coherence protocol: snoopy or directory")
	ordering := flag.String("ordering", "quickrec", "interval orderer: quickrec or lamport")
	model := flag.String("model", "rc", "consistency model of the cores: rc, tso or sc")
	out := flag.String("o", "", "write the serialized log to this file")
	verify := flag.Bool("verify", false, "replay the log and verify determinism")
	prov := flag.Bool("provenance", false, "capture per-interval provenance (termination causes, conflicts, reorder instants); persisted in the -o log, consumed by rrtrace and forensics")
	faults := flag.String("faults", "", "inject faults: point[,point...]@seed, or default@seed")
	list := flag.Bool("list", false, "list available workloads and exit")
	flag.Parse()

	if *list {
		fmt.Println("kernels:")
		for _, k := range relaxreplay.Kernels() {
			fmt.Printf("  %-10s %s\n", k.Name, k.Description)
		}
		fmt.Println("litmus tests (use litmus:<name>):")
		for _, l := range relaxreplay.LitmusTests() {
			fmt.Printf("  %s\n", l.Name)
		}
		return
	}

	cfg := relaxreplay.DefaultConfig()
	cfg.Cores = *cores
	switch *variant {
	case "opt":
		cfg.Variant = relaxreplay.Opt
	case "base":
		cfg.Variant = relaxreplay.Base
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}
	switch strings.ToLower(*interval) {
	case "4k":
		cfg.MaxIntervalInstrs = 4096
	case "inf":
		cfg.MaxIntervalInstrs = 0
	default:
		fatal(fmt.Errorf("unknown interval %q", *interval))
	}
	switch *protocol {
	case "snoopy":
		cfg.Protocol = relaxreplay.Snoopy
	case "directory":
		cfg.Protocol = relaxreplay.Directory
	default:
		fatal(fmt.Errorf("unknown protocol %q", *protocol))
	}
	switch *ordering {
	case "quickrec":
		cfg.Ordering = relaxreplay.QuickRec
	case "lamport":
		cfg.Ordering = relaxreplay.Lamport
	default:
		fatal(fmt.Errorf("unknown ordering %q", *ordering))
	}
	switch *model {
	case "rc":
		cfg.Memory = relaxreplay.RC
	case "tso":
		cfg.Memory = relaxreplay.TSO
	case "sc":
		cfg.Memory = relaxreplay.SC
	default:
		fatal(fmt.Errorf("unknown model %q", *model))
	}

	var w relaxreplay.Workload
	var check func(map[uint64]uint64) error
	var err error
	if *files != "" {
		w, err = loadAsmWorkload(*files, cfg.Cores)
	} else {
		w, check, err = relaxreplay.WorkloadByName(*app, cfg.Cores, *scale)
	}
	if err != nil {
		fatal(err)
	}
	cfg.Cores = len(w.Progs)

	tel, err := tf.New(cfg.Cores)
	if err != nil {
		fatal(err)
	}
	cfg.Telemetry = tel
	inj, err := relaxreplay.ParseFaults(*faults)
	if err != nil {
		fatal(err)
	}
	inj.SetTelemetry(tel)
	cfg.Faults = inj
	if *prov {
		cfg.Provenance = relaxreplay.NewProvenanceCollector()
	}

	rec, err := relaxreplay.Record(cfg, w)
	if err != nil {
		fatal(err)
	}
	if check != nil {
		if err := check(rec.FinalMemory()); err != nil {
			fatal(fmt.Errorf("workload oracle failed: %w", err))
		}
	}

	instr := rec.Instructions()
	bits := rec.LogSizeBits()
	fmt.Printf("recorded %q: %d cores, %d instructions, %d cycles\n",
		w.Name, cfg.Cores, instr, rec.Cycles())
	fmt.Printf("log: %d bits uncompressed (%.1f bits/1K instructions), %d reordered accesses\n",
		bits, float64(bits)*1000/float64(instr), rec.ReorderedAccesses())
	if *prov {
		var recs, reorders int
		for _, cp := range rec.Provenance() {
			recs += len(cp.Records)
			for _, r := range cp.Records {
				reorders += len(r.Reorders)
			}
		}
		fmt.Printf("provenance: %d interval records, %d reorder instants captured\n", recs, reorders)
	}

	if *verify {
		rep, err := rec.Replay()
		if err != nil {
			fatal(fmt.Errorf("replay verification FAILED: %w", err))
		}
		fmt.Printf("replay verified: %d intervals, %.1fx recording time (user %d + OS %d cycles)\n",
			rep.Intervals, float64(rep.Timing.Total())/float64(rec.Cycles()),
			rep.Timing.UserCycles, rep.Timing.OSCycles)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		applied, err := rec.WriteLogWith(f, inj)
		if err != nil {
			fatal(err)
		}
		for _, a := range applied {
			fmt.Printf("fault injected into log bytes: %s\n", a)
		}
		st, _ := f.Stat()
		fmt.Printf("wrote %s (%d bytes on disk)\n", *out, st.Size())
	}
	if inj != nil {
		fmt.Printf("faults: %s\n", inj)
	}

	if err := tf.Flush(tel); err != nil {
		fatal(err)
	}
}

// loadAsmWorkload assembles the given file(s): one program per core,
// or a single file replicated across cores.
func loadAsmWorkload(files string, cores int) (relaxreplay.Workload, error) {
	var progs []relaxreplay.Program
	names := strings.Split(files, ",")
	for _, f := range names {
		src, err := os.ReadFile(f)
		if err != nil {
			return relaxreplay.Workload{}, err
		}
		p, err := relaxreplay.ParseProgram(f, string(src))
		if err != nil {
			return relaxreplay.Workload{}, err
		}
		progs = append(progs, p)
	}
	if len(progs) == 1 {
		one := progs[0]
		progs = make([]relaxreplay.Program, cores)
		for i := range progs {
			progs[i] = one
		}
	}
	return relaxreplay.Workload{Name: names[0], Progs: progs}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrsim:", err)
	os.Exit(1)
}
