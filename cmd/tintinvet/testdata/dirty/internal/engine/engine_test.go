package engine

// With a test file here the driver loads the package twice, as itself and
// as its test variant, so each finding in engine.go is made twice and
// must still print once.
var _, _ = errBare, stamp
