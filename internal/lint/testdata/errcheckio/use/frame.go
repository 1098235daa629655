package use

import "relaxreplay/internal/lint/testdata/errcheckio/frame"

// DropFrame discards the frame writer's oversize error.
func DropFrame(payload []byte) []byte {
	out, _ := frame.Append(nil, 1, payload, 16)
	return out
}

// CleanFrame handles it.
func CleanFrame(payload []byte) ([]byte, error) {
	return frame.Append(nil, 1, payload, 16)
}
