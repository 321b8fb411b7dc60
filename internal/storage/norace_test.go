//go:build !race

package storage

// raceEnabled reports a -race build; allocation guards skip under it.
const raceEnabled = false
