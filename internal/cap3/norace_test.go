//go:build !race

package cap3

const raceEnabled = false
