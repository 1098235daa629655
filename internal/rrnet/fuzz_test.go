package rrnet

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"relaxreplay/internal/frame"
)

// FuzzStreamReassembly throws arbitrary bytes at the connection-input
// path: preamble check, frame resync, per-message decoding, and the
// server-side session reassembly state machine (cumulative prefix,
// bounded out-of-order buffer, dedup). The invariants under attack:
//
//   - no panic, no unbounded allocation, no unbounded loop for any input
//   - contig never goes backward and never jumps a gap
//   - the reorder buffer never exceeds its bound
//
// The same reassembly rules run inside Server.applyChunk; the fuzz
// harness mirrors them without a journal so iterations stay cheap.
//
// A second leg reads the same bytes as a journal's records, through
// the byte-level parse behind ReadJournal: it must not panic, must
// account for no more bytes than it was given, and every recovered
// session must export.
func FuzzStreamReassembly(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	journal := scriptedJournal(f)[8:]
	f.Add(journal)
	f.Add(journal[:len(journal)-9])
	const window = 16
	f.Fuzz(func(t *testing.T, data []byte) {
		v := readJournal(append([]byte{'R', 'R', 'J', 'L', JournalVersion, 0, 0, 0}, data...))
		if v.SkippedBytes > int64(len(data)) {
			t.Fatalf("skipped %d of %d bytes", v.SkippedBytes, len(data))
		}
		for _, id := range v.Order {
			var out bytes.Buffer
			if err := v.Export(id, &out); err != nil || out.Len() != len(v.Sessions[id].Data) {
				t.Fatalf("export session %d: %d bytes, %v", id, out.Len(), err)
			}
		}

		r := bytes.NewReader(data)
		if err := readPreamble(r); err != nil {
			return // not a session stream; nothing to reassemble
		}
		fr := frame.NewReader(r, MaxWirePayload, 1<<20)
		type state struct {
			contig  uint64
			pending map[uint64][]byte
			bytes   uint64
		}
		sessions := make(map[uint64]*state)
		for {
			tp, payload, err := fr.Next()
			if err != nil {
				break
			}
			switch MsgType(tp) {
			case MsgHello:
				if m, ok := decodeHello(payload); ok && sessions[m.Session] == nil {
					sessions[m.Session] = &state{pending: make(map[uint64][]byte)}
				}
			case MsgChunk:
				m, ok := decodeChunk(payload)
				if !ok {
					continue
				}
				st := sessions[m.Session]
				if st == nil {
					continue
				}
				before := st.contig
				switch {
				case m.Seq < st.contig:
					// duplicate: ignored
				case m.Seq == st.contig:
					st.bytes += uint64(len(m.Data))
					st.contig++
					for {
						next, ok := st.pending[st.contig]
						if !ok {
							break
						}
						delete(st.pending, st.contig)
						st.bytes += uint64(len(next))
						st.contig++
					}
				default:
					if m.Seq-st.contig <= window && len(st.pending) < window {
						st.pending[m.Seq] = append([]byte(nil), m.Data...)
					}
				}
				if st.contig < before {
					t.Fatalf("contig went backward: %d -> %d", before, st.contig)
				}
				if len(st.pending) > window {
					t.Fatalf("reorder buffer grew to %d (bound %d)", len(st.pending), window)
				}
			case MsgCommit:
				if m, ok := decodeCommit(payload); ok {
					if len(m.Dropped) > MaxDroppedReport {
						t.Fatalf("dropped list %d exceeds clamp %d", len(m.Dropped), MaxDroppedReport)
					}
				}
			case MsgHelloAck, MsgAck, MsgCommitAck, MsgHeartbeat, MsgHeartbeatAck, MsgError:
				// decode them too: parsers must be total
				decodeHelloAck(payload)
				decodeAck(payload)
				decodeCommitAck(payload)
				decodeNonce(payload)
				decodeError(payload)
			}
		}
	})
}

// fuzzSeeds builds the committed seed shapes: a valid session stream,
// a truncated one, one with a duplicated chunk, and two interleaved
// sessions.
func fuzzSeeds() [][]byte {
	preamble := func() []byte {
		var b [6]byte
		copy(b[:4], wireMagic[:])
		binary.LittleEndian.PutUint16(b[4:], ProtoVersion)
		return b[:]
	}

	valid := preamble()
	valid = append(valid, frameBytes(MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: 1, Tenant: "seed"}))...)
	valid = append(valid, frameBytes(MsgChunk, encodeChunk(chunkMsg{Session: 1, Seq: 0, Data: []byte("alpha")}))...)
	valid = append(valid, frameBytes(MsgChunk, encodeChunk(chunkMsg{Session: 1, Seq: 1, Data: []byte("beta")}))...)
	valid = append(valid, frameBytes(MsgCommit, encodeCommit(commitMsg{Session: 1, Chunks: 2, LogLen: 9, LogCRC: 0xDEAD}))...)

	truncated := append([]byte(nil), valid[:len(valid)-7]...)

	duplicated := preamble()
	duplicated = append(duplicated, frameBytes(MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: 2}))...)
	chunk := frameBytes(MsgChunk, encodeChunk(chunkMsg{Session: 2, Seq: 0, Data: []byte("dup")}))
	duplicated = append(duplicated, chunk...)
	duplicated = append(duplicated, chunk...) // exact re-delivery

	interleaved := preamble()
	interleaved = append(interleaved, frameBytes(MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: 3}))...)
	interleaved = append(interleaved, frameBytes(MsgHello, encodeHello(helloMsg{Proto: ProtoVersion, Session: 4}))...)
	interleaved = append(interleaved, frameBytes(MsgChunk, encodeChunk(chunkMsg{Session: 3, Seq: 0, Data: []byte("a3")}))...)
	interleaved = append(interleaved, frameBytes(MsgChunk, encodeChunk(chunkMsg{Session: 4, Seq: 1, Data: []byte("ooo")}))...) // out of order
	interleaved = append(interleaved, frameBytes(MsgChunk, encodeChunk(chunkMsg{Session: 4, Seq: 0, Data: []byte("a4")}))...)

	return [][]byte{valid, truncated, duplicated, interleaved}
}

// TestWriteFuzzCorpus materializes the seeds as committed corpus
// files when RRNET_WRITE_CORPUS=1 (one-time generation; the files are
// checked in so CI's fuzz-smoke starts from real protocol shapes).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("RRNET_WRITE_CORPUS") == "" {
		t.Skip("set RRNET_WRITE_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzStreamReassembly")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names := []string{"seed-valid", "seed-truncated", "seed-duplicated", "seed-interleaved", "seed-journal", "seed-journal-torn"}
	journal := scriptedJournal(t)[8:]
	for i, seed := range append(fuzzSeeds(), journal, journal[:len(journal)-9]) {
		body := "go test fuzz v1\n[]byte(" + quoteBytes(seed) + ")"
		if err := os.WriteFile(filepath.Join(dir, names[i]), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// frameBytes returns one wire frame, as writeFrame sends it.
func frameBytes(t MsgType, payload []byte) []byte {
	var b bytes.Buffer
	if err := writeFrame(&b, t, payload); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func quoteBytes(b []byte) string {
	const hex = "0123456789abcdef"
	out := make([]byte, 0, len(b)*4+2)
	out = append(out, '"')
	for _, c := range b {
		out = append(out, '\\', 'x', hex[c>>4], hex[c&0xf])
	}
	return string(append(out, '"'))
}
