//go:build race

package cli

func init() { raceEnabled = true }
