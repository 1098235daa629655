// Package frame is the one implementation of the checksummed envelope
// every RelaxReplay byte stream travels in: log files (formats v2 and
// v3, internal/replaylog), the rrnet wire protocol, and rrproc's
// journal.
//
//	frame := sync 0xF5 'R' 'F' '2'
//	       | type u8 | length u32 (LE, payload bytes)
//	       | payload
//	       | crc32c u32 (LE, over type|length|payload)
//
// It holds the four pieces those users share, and nothing else:
//
//   - Append, the only place a frame header or checksum is computed;
//   - Reader, a streaming reader that resyncs within a skip budget;
//   - Scanner, an in-memory salvage scan with byte-exact accounting;
//   - Buf and Cursor, the little-endian payload builder and its
//     bounds-checked reader.
//
// Frame types and payload layouts belong to the users; this package
// only filters types when asked to.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Sync is the word that opens every frame; a reader hunting through
// damage resynchronizes on it.
var Sync = [4]byte{0xF5, 'R', 'F', '2'}

const (
	// HeaderLen is the sync word, type byte and length field.
	HeaderLen = 9
	// Overhead is everything in a frame but its payload: the header
	// and the trailing CRC32C.
	Overhead = HeaderLen + 4
)

// Castagnoli is the CRC32C table (hardware-accelerated on amd64 and
// arm64). Users that checksum whole logs, not frames, share it too.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTooLarge reports a payload longer than the limit its writer
// passed to Append. The u32 length field could carry more, but every
// reader clamps far tighter, so such a frame would be unreadable.
var ErrTooLarge = errors.New("frame: payload too large")

// Append appends one frame of type typ carrying payload to dst and
// returns the extended slice. A payload longer than limit is refused
// with ErrTooLarge, and dst comes back unchanged. Append allocates
// only when dst lacks the capacity, so a writer that passes its
// previous result back as dst[:0] frames without allocating.
func Append(dst []byte, typ uint8, payload []byte, limit int) ([]byte, error) {
	if len(payload) > limit {
		return dst, fmt.Errorf("%w: %d bytes (limit %d)", ErrTooLarge, len(payload), limit)
	}
	dst = append(dst, Sync[:]...)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.Update(0, Castagnoli, dst[len(dst)-5:])
	crc = crc32.Update(crc, Castagnoli, payload)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}
