package valuecmp_test

import (
	"tintin/internal/lint/testdata/src/valuecmp"
	"tintin/internal/lint/testdata/src/valuecmp/internal/sqltypes"
)

// Test files are analyzed too: the external _test package.
func differInTest(a, b sqltypes.Value) bool {
	return a != b && !valuecmp.Same(a, b) // want `!= on sqltypes\.Value compares raw representations`
}
