//go:build race

package rrnet_test

func init() { raceEnabled = true }
