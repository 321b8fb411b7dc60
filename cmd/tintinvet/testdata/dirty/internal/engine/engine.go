// Package engine seeds violations for the tintinvet driver test: a bare
// error message, a wall-clock read in engine code, and a suppression
// directive that lacks its reason (so it suppresses nothing).
package engine

import (
	"errors"
	"time"
)

var errBare = errors.New("bare")

func stamp() time.Time {
	//tintin:allow nodeterminism
	return time.Now()
}
