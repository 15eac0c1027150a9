//go:build !race

package region_test

const raceEnabled = false
