package replaylog

// EncodeV3Workers is encodeV3, for the package's external tests.
var EncodeV3Workers = encodeV3
