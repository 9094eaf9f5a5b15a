//go:build race

package ehs

func init() { raceEnabled = true }
