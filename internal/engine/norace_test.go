//go:build !race

package engine

// raceEnabled reports a -race build; allocation guards skip under it.
const raceEnabled = false
