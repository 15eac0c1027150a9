//go:build race

package core_test

// raceEnabled lets allocation guards skip: the race detector's
// instrumentation allocates on its own.
const raceEnabled = true
