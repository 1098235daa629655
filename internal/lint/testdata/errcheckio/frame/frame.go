// Package frame is a lint fixture mirroring the real framing package:
// a frame writer that refuses oversize payloads with an error callers
// must not drop.
package frame

import "errors"

// Append appends one frame carrying payload to dst.
func Append(dst []byte, typ uint8, payload []byte, limit int) ([]byte, error) {
	if len(payload) > limit {
		return dst, errors.New("frame: payload too large")
	}
	return append(append(dst, typ), payload...), nil
}
