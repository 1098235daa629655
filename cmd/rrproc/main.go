// Command rrproc is the central record-and-replay processor: it
// accepts concurrent rrd sessions over the rrnet protocol and
// multiplexes them into one crash-safe append-only journal with
// fsync'd segment boundaries.
//
// Usage:
//
//	rrproc -journal rr.journal [-listen :7070]
//	       [-max-sessions 64] [-reorder 64] [-fsync-bytes 1048576]
//	       [-frame-timeout 10s] [-drain 10s]               serve (SIGTERM drains)
//	rrproc -journal rr.journal -query                      list recovered sessions
//	rrproc -journal rr.journal -export ID -o out.rrlog     export one session's log
//	rrproc -journal rr.journal -verify                     verify committed sessions
//
// Serve mode runs until SIGINT/SIGTERM, then drains gracefully:
// in-flight sessions get -drain to finish, the journal is barriered,
// and the process exits 0. A killed rrproc recovers on restart: the
// journal is scanned (tolerating a torn tail), sessions resume where
// their durable prefix ends, and clients re-send the difference.
//
// -query and -export run the same recovery scan offline, so they work
// on the journal of a crashed server. An exported session replays
// like any local log: rrreplay -log out.rrlog.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"relaxreplay"
	"relaxreplay/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var tf telemetry.Flags
	tf.Register(nil)
	journal := flag.String("journal", "", "append-only journal file; required")
	listen := flag.String("listen", ":7070", "listen address (serve mode)")
	maxSessions := flag.Int("max-sessions", 0, "bound on concurrently open sessions (0 = default)")
	reorder := flag.Int("reorder", 0, "per-session out-of-order chunk buffer bound (0 = default)")
	fsyncBytes := flag.Int("fsync-bytes", 0, "journal bytes between fsync'd segment boundaries (0 = default)")
	frameTimeout := flag.Duration("frame-timeout", 0, "per-frame read/write deadline (0 = default)")
	drain := flag.Duration("drain", 0, "graceful shutdown drain budget (0 = default)")
	query := flag.Bool("query", false, "list the journal's sessions and exit")
	export := flag.Uint64("export", 0, "export this session id's log bytes to -o and exit")
	out := flag.String("o", "", "output file for -export")
	verify := flag.Bool("verify", false, "verify every committed session's length and CRC, then exit")
	flag.Parse()

	if *journal == "" {
		fmt.Fprintln(os.Stderr, "rrproc: -journal is required")
		return 1
	}
	if *query || *export != 0 || *verify {
		return offline(*journal, *query, *export, *out, *verify)
	}

	tel, err := tf.New(1)
	if err != nil {
		return fail(err)
	}
	srv, err := relaxreplay.NewStreamServer(relaxreplay.StreamServerOptions{
		Addr:            *listen,
		JournalPath:     *journal,
		MaxSessions:     *maxSessions,
		ReorderWindow:   *reorder,
		FrameTimeout:    *frameTimeout,
		DrainTimeout:    *drain,
		FsyncEveryBytes: *fsyncBytes,
	}, tel.Registry())
	if err != nil {
		return fail(err)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		sig := <-sigc
		fmt.Printf("rrproc: %v: draining\n", sig)
		done <- srv.Shutdown()
	}()

	fmt.Printf("rrproc: serving on %s, journaling to %s\n", *listen, *journal)
	if err := srv.Listen(); err != nil {
		return fail(err)
	}
	if err := <-done; err != nil {
		return fail(err)
	}
	if err := tf.Flush(tel); err != nil {
		return fail(err)
	}
	fmt.Println("rrproc: drained")
	return 0
}

// offline runs the recovery scan without serving: -query, -export and
// -verify all operate on the journal as found on disk, torn tail and
// all.
func offline(path string, query bool, export uint64, out string, verify bool) int {
	view, err := relaxreplay.ReadStreamJournal(path)
	if err != nil {
		return fail(err)
	}

	if query {
		fmt.Printf("%-20s %-12s %-10s %8s %10s %8s\n",
			"SESSION", "TENANT", "STATUS", "CHUNKS", "BYTES", "MISSING")
		for _, id := range view.SortedIDs() {
			s := view.Sessions[id]
			fmt.Printf("%-20d %-12s %-10s %8d %10d %8d\n",
				id, s.Tenant, sessionStatus(s), s.Chunks, len(s.Data), s.Missing)
		}
		if view.SkippedBytes > 0 || view.DroppedFrames > 0 || view.TornTail || view.DupChunks > 0 {
			fmt.Printf("recovery: %d bytes skipped, %d frames dropped, %d duplicate chunks, torn tail: %v\n",
				view.SkippedBytes, view.DroppedFrames, view.DupChunks, view.TornTail)
		}
	}

	if verify {
		bad := 0
		for _, id := range view.SortedIDs() {
			s := view.Sessions[id]
			if !s.Committed {
				continue
			}
			if err := s.Verify(); err != nil {
				fmt.Fprintf(os.Stderr, "rrproc: session %d: %v\n", id, err)
				bad++
			} else {
				fmt.Printf("session %d: verified (%d bytes, crc ok)\n", id, len(s.Data))
			}
		}
		if bad > 0 {
			return 1
		}
	}

	if export != 0 {
		if out == "" {
			fmt.Fprintln(os.Stderr, "rrproc: -export requires -o")
			return 1
		}
		s := view.Sessions[export]
		if s == nil {
			return fail(fmt.Errorf("session %d not in journal", export))
		}
		if s.Status == relaxreplay.StreamStatusDegraded {
			fmt.Fprintf(os.Stderr, "rrproc: warning: session %d is degraded (%d chunks missing)\n",
				export, s.Missing)
		}
		f, err := os.Create(out)
		if err != nil {
			return fail(err)
		}
		if err := view.Export(export, f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Printf("exported session %d: %d bytes to %s\n", export, len(s.Data), out)
	}
	return 0
}

func sessionStatus(s *relaxreplay.JournalSession) string {
	if !s.Committed {
		return "open"
	}
	switch s.Status {
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
	fmt.Fprintf(os.Stderr, "rrproc: %v\n", err)
	return 1
}
