// Package clean has nothing for tintinvet to report.
package clean

import "errors"

var errClean = errors.New("tintin: clean")
