//go:build race

package replaylog_test

func init() { raceEnabled = true }
