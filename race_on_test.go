//go:build race

package era

// raceEnabled reports a -race build, whose allocator changes what the
// allocation pins count.
const raceEnabled = true
