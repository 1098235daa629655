// Command rrd is the recorder-side streaming agent: it records a
// workload (or reads an existing log file) and streams the v3 log to
// a central rrproc over the fault-tolerant rrnet session protocol.
//
// Usage:
//
//	rrd -proc host:7070 [-session N] [-tenant name]
//	    -app fft [-cores 8] [-scale 3] [-variant opt|base]   record and stream
//	    -in fft.rrlog                                        stream an existing v3 log
//	    [-o local.rrlog]      keep a local copy of the exact streamed bytes
//	    [-queue-policy block|drop|spill] [-spill-dir DIR]
//	    [-chunk 65536] [-window 32] [-retries 8]
//	    [-backoff 50ms] [-backoff-cap 5s] [-heartbeat 2s] [-ack-stall 3s]
//	    [-faults net.drop@7]  chaos transport on the rrproc connection
//
// The agent retries with capped exponential backoff and resumes
// sessions across reconnects; what it cannot deliver under the chosen
// backpressure policy it reports rather than hides.
//
// Exit status: 0 when the journaled session is byte-identical to the
// local log, 3 when the server committed a degraded session (chunks
// shed under the drop policy), 1 on errors and rejections.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"relaxreplay"
	"relaxreplay/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var tf telemetry.Flags
	tf.Register(nil)
	proc := flag.String("proc", "", "rrproc address (host:port); required")
	session := flag.Uint64("session", 0, "session id (0 derives one from the clock)")
	tenant := flag.String("tenant", "", "tenant label recorded in the journal")
	app := flag.String("app", "fft", "workload: kernel name or litmus:<name>")
	cores := flag.Int("cores", 8, "number of simulated cores (kernels only)")
	scale := flag.Int("scale", 3, "problem-size multiplier (kernels only)")
	variant := flag.String("variant", "opt", "recorder variant: opt or base")
	in := flag.String("in", "", "stream this existing log file instead of recording")
	out := flag.String("o", "", "also write the streamed bytes to this local file")
	policy := flag.String("queue-policy", "block", "backpressure policy when the send window fills: block, drop or spill")
	spillDir := flag.String("spill-dir", "", "directory for the spill file (queue-policy spill; default: the system temp dir)")
	chunk := flag.Int("chunk", 0, "chunk size in bytes (0 = default)")
	window := flag.Int("window", 0, "send window in chunks (0 = default)")
	retries := flag.Int("retries", 0, "max consecutive retries without ack progress (0 = default)")
	backoff := flag.Duration("backoff", 0, "base retry backoff (0 = default)")
	backoffCap := flag.Duration("backoff-cap", 0, "retry backoff cap (0 = default)")
	heartbeat := flag.Duration("heartbeat", 0, "idle heartbeat interval (0 = default)")
	ackStall := flag.Duration("ack-stall", 0, "reconnect after this long without ack progress (0 = default)")
	faults := flag.String("faults", "", "inject transport faults: point[,point...]@seed (net.* points)")
	flag.Parse()

	if *proc == "" {
		fmt.Fprintln(os.Stderr, "rrd: -proc is required")
		return 1
	}

	pol, err := relaxreplay.ParseBackpressure(*policy)
	if err != nil {
		return fail(err)
	}
	dir := *spillDir
	if pol == relaxreplay.BackpressureSpill && dir == "" {
		dir = os.TempDir()
	}
	id := *session
	if id == 0 {
		id = uint64(time.Now().UnixNano())
	}

	tel, err := tf.New(*cores)
	if err != nil {
		return fail(err)
	}
	inj, err := relaxreplay.ParseFaults(*faults)
	if err != nil {
		return fail(err)
	}
	inj.SetTelemetry(tel)

	client, err := relaxreplay.NewStreamClient(relaxreplay.StreamClientOptions{
		Addr:           *proc,
		Tenant:         *tenant,
		ChunkSize:      *chunk,
		Window:         *window,
		Policy:         pol,
		SpillDir:       dir,
		MaxRetries:     *retries,
		BackoffBase:    *backoff,
		BackoffCap:     *backoffCap,
		HeartbeatEvery: *heartbeat,
		AckStall:       *ackStall,
		Seed:           id,
	}, tel.Registry())
	if err != nil {
		return fail(err)
	}
	if inj != nil {
		dial := client.Dial
		client.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := dial(addr, timeout)
			if err != nil {
				return nil, err
			}
			return relaxreplay.WrapStreamConn(nc, inj), nil
		}
	}

	sw, err := client.OpenSession(id)
	if err != nil {
		return fail(err)
	}

	var local *os.File
	if *out != "" {
		local, err = os.Create(*out)
		if err != nil {
			return fail(err)
		}
	}

	streamErr := stream(sw, local, *in, *app, *cores, *scale, *variant)
	var closeErr error
	if streamErr != nil {
		// The producer died mid-stream: abort without committing.
		// Close would drain and commit the truncated prefix, and the
		// server — whose CRC check only covers bytes that were
		// actually streamed — would journal it as a healthy session
		// while rrd exits 1.
		sw.Abort()
	} else {
		closeErr = sw.Close()
	}
	res := sw.Result()
	if local != nil {
		if err := local.Close(); err != nil && streamErr == nil {
			streamErr = err
		}
	}

	status := statusName(res.Status)
	if streamErr != nil {
		status = "aborted"
	}
	fmt.Printf("session %d (%s): %d chunks, %d bytes, %d retries\n",
		id, status, res.Chunks, res.Bytes, res.Retries)
	if res.Spilled > 0 {
		fmt.Printf("spilled %d chunks through %s\n", res.Spilled, dir)
	}
	if err := tf.Flush(tel); err != nil {
		return fail(err)
	}
	if inj != nil {
		fmt.Printf("faults: %s\n", inj)
	}

	switch {
	case streamErr != nil:
		return fail(streamErr)
	case closeErr != nil:
		return fail(closeErr)
	case res.Status == relaxreplay.StreamStatusDegraded:
		fmt.Fprintf(os.Stderr, "rrd: session %d committed DEGRADED: %d chunks missing (%s)\n",
			id, res.Missing, res.Reason)
		return 3
	case res.Status == relaxreplay.StreamStatusReject:
		fmt.Fprintf(os.Stderr, "rrd: session %d rejected: %s\n", id, res.Reason)
		return 1
	}
	return 0
}

// stream produces the log bytes onto the session (and the optional
// local copy): either by re-streaming an existing file or by
// recording the named workload and encoding it as v3 on the fly.
func stream(sw io.Writer, local *os.File, in, app string, cores, scale int, variant string) error {
	var w io.Writer = sw
	if local != nil {
		w = io.MultiWriter(local, sw)
	}

	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(w, f)
		return err
	}

	cfg := relaxreplay.DefaultConfig()
	cfg.Cores = cores
	switch variant {
	case "opt":
		cfg.Variant = relaxreplay.Opt
	case "base":
		cfg.Variant = relaxreplay.Base
	default:
		return fmt.Errorf("unknown variant %q", variant)
	}

	var wl relaxreplay.Workload
	if name, ok := strings.CutPrefix(app, "litmus:"); ok {
		l, err := relaxreplay.LitmusByName(name)
		if err != nil {
			return err
		}
		wl = l.Workload
		cfg.Cores = len(wl.Progs)
	} else {
		var err error
		wl, _, err = relaxreplay.BuildKernel(app, cfg.Cores, scale)
		if err != nil {
			return err
		}
	}

	rec, err := relaxreplay.Record(cfg, wl)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %q: %d cores, %d instructions, %d cycles\n",
		wl.Name, cfg.Cores, rec.Instructions(), rec.Cycles())
	return rec.WriteLog(w)
}

func statusName(s uint8) string {
	switch s {
	case relaxreplay.StreamStatusOK:
		return "identical"
	case relaxreplay.StreamStatusDegraded:
		return "degraded"
	case relaxreplay.StreamStatusReject:
		return "rejected"
	}
	return "unknown"
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "rrd: %v\n", err)
	return 1
}
