//go:build !race

package server

// raceEnabled reports whether the race detector is instrumenting this test
// binary. Under -race sync.Pool drops a share of what is put into it, so an
// allocation ceiling over pooled buffers cannot hold there.
const raceEnabled = false
