//go:build race

package reptile

func init() { raceEnabled = true }
