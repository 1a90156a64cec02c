//go:build !race

package pthread_test

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation distorts allocation counts.
const raceEnabled = false
