package valuecmp

import "tintin/internal/lint/testdata/src/valuecmp/internal/sqltypes"

// Test files are analyzed too: the in-package test variant.
func sameInTest(a, b sqltypes.Value) bool {
	return a == b // want `== on sqltypes\.Value compares raw representations`
}

// Same exists only in the test variant, so the external test package
// type-checks only if its import resolves to that variant.
var Same = sameInTest
