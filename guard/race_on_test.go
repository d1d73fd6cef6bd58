//go:build race

package guard

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops Puts at random: pooled hop
// scratch then reallocates, and allocation counts mean nothing.
const raceEnabled = true
