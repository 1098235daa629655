//go:build race

package replay_test

func init() { raceEnabled = true }
