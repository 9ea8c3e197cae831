//go:build race

package kspectrum

func init() { raceEnabled = true }
