//go:build !race

package streamcover

const raceEnabled = false
