package frame

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame is one candidate a Scanner found.
type Frame struct {
	// Off is the offset of the frame's sync word in the scanned bytes.
	Off  int
	Type uint8
	// Payload aliases the scanned bytes. When BadCRC is set it is
	// unverified: good enough to name the frame in a report, never to
	// decode.
	Payload []byte
	// BadCRC marks a candidate whose checksum failed. Its length field
	// is part of what failed, so the scan resumes one byte past Off
	// rather than at the claimed frame end.
	BadCRC bool
}

// Scanner walks an in-memory byte slice frame by frame, salvaging
// what a damaged stream still holds: it hunts byte by byte for the
// sync word, rejects candidates whose type fails the filter or whose
// length is over the limit or runs past the data, and reports
// checksum failures instead of trusting them. Every byte of the input
// ends up in exactly one of three places: an intact frame Next
// returned, Skipped, or Tail.
type Scanner struct {
	data   []byte
	pos    int
	limit  int
	accept func(typ uint8) bool

	skipped int64
	torn    bool
}

// NewScanner scans data for frames of at most limit payload bytes
// whose type accept allows (nil accepts every type).
func NewScanner(data []byte, limit int, accept func(typ uint8) bool) Scanner {
	return Scanner{data: data, limit: limit, accept: accept}
}

// Next returns the next candidate: an intact frame, or one whose
// checksum failed (Frame.BadCRC). It returns false once fewer than
// Overhead bytes remain.
func (s *Scanner) Next() (Frame, bool) {
	for s.pos+Overhead <= len(s.data) {
		p := s.pos
		if [4]byte(s.data[p:p+4]) != Sync {
			s.skip()
			continue
		}
		typ := s.data[p+4]
		length := binary.LittleEndian.Uint32(s.data[p+5 : p+9])
		if (s.accept != nil && !s.accept(typ)) || uint64(length) > uint64(s.limit) {
			// Corrupt type or length, or a false sync inside a payload:
			// not a boundary to trust.
			s.skip()
			continue
		}
		end := p + Overhead + int(length)
		if end > len(s.data) {
			// Runs past the data: a torn tail, or a lying length. Keep
			// hunting; an appended-to file continues past a tear.
			s.torn = true
			s.skip()
			continue
		}
		f := Frame{Off: p, Type: typ, Payload: s.data[p+HeaderLen : end-4]}
		if crc32.Checksum(s.data[p+4:end-4], Castagnoli) != binary.LittleEndian.Uint32(s.data[end-4:end]) {
			f.BadCRC = true
			s.skip()
			return f, true
		}
		s.pos = end
		return f, true
	}
	return Frame{}, false
}

func (s *Scanner) skip() {
	s.pos++
	s.skipped++
}

// Skipped is the number of bytes discarded so far hunting for frames,
// one for each checksum-failed candidate included.
func (s *Scanner) Skipped() int64 { return s.skipped }

// Torn reports whether some candidate claimed to run past the end of
// the data.
func (s *Scanner) Torn() bool { return s.torn }

// Tail is the number of bytes left unscanned: once Next has returned
// false, fewer than Overhead bytes at the end of the data. Whether
// they count as damage is the caller's call.
func (s *Scanner) Tail() int { return len(s.data) - s.pos }
