package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrResyncBudget reports a stream that needed more garbage skipped
// than the Reader's budget allows.
var ErrResyncBudget = errors.New("frame: resync budget exhausted")

// Reader reads frames from a (possibly hostile) byte stream,
// resynchronizing past garbage and CRC failures. It never allocates
// more than its payload limit per frame, whatever the length field
// claims.
type Reader struct {
	r     *bufio.Reader
	limit int

	// skipBudget bounds the total garbage bytes tolerated before the
	// stream is declared unusable (<=0: no budget, for trusted pipes).
	skipBudget int64

	// Skipped and Dropped count resynced bytes and CRC-failed frames.
	Skipped int64
	Dropped int
}

// NewReader reads frames of at most limit payload bytes from r.
func NewReader(r io.Reader, limit int, skipBudget int64) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10), limit: limit, skipBudget: skipBudget}
}

// Next returns the next intact frame, skipping garbage and corrupt
// frames. io.EOF means a clean end between frames; io.ErrUnexpectedEOF
// a tear inside one. A frame that fails its checksum is skipped whole:
// the reader trusts its length field to find the next frame.
func (fr *Reader) Next() (uint8, []byte, error) {
	for {
		// Hunt for the sync word byte by byte.
		b, err := fr.r.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		if b != Sync[0] {
			if err := fr.skip(1); err != nil {
				return 0, nil, err
			}
			continue
		}
		rest, err := fr.r.Peek(3)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		if rest[0] != Sync[1] || rest[1] != Sync[2] || rest[2] != Sync[3] {
			if err := fr.skip(1); err != nil {
				return 0, nil, err
			}
			continue
		}
		if _, err := fr.r.Discard(3); err != nil {
			return 0, nil, err
		}
		var hdr [5]byte // type u8 | length u32
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		length := binary.LittleEndian.Uint32(hdr[1:])
		if uint64(length) > uint64(fr.limit) {
			// The length field cannot be trusted; everything consumed
			// past the sync word is garbage. Resync from here.
			if err := fr.skip(int64(len(hdr)) + 3); err != nil {
				return 0, nil, err
			}
			continue
		}
		body := make([]byte, length+4)
		if _, err := io.ReadFull(fr.r, body); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		crc := crc32.Update(0, Castagnoli, hdr[:])
		crc = crc32.Update(crc, Castagnoli, body[:length])
		if crc != binary.LittleEndian.Uint32(body[length:]) {
			fr.Dropped++
			if err := fr.skip(int64(len(hdr)) + 3 + int64(len(body))); err != nil {
				return 0, nil, err
			}
			continue
		}
		return hdr[0], body[:length], nil
	}
}

// skip charges n bytes against the resync budget.
func (fr *Reader) skip(n int64) error {
	fr.Skipped += n
	if fr.skipBudget > 0 && fr.Skipped > fr.skipBudget {
		return fmt.Errorf("%w: skipped %d bytes", ErrResyncBudget, fr.Skipped)
	}
	return nil
}
