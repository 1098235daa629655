package replaylog

import "io"

// EncodeV3Workers is encodeV3 with the default options, for the
// package's external tests.
func EncodeV3Workers(w io.Writer, l *Log, workers int) error {
	return encodeV3(w, l, v3Options{}, nil, workers)
}
