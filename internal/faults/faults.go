// Package faults is the deterministic fault-injection registry behind the
// chaos harness: named fault points threaded through every crash-critical
// seam of the engine (snapshot write/sync/rename, delta-journal append,
// compaction, mmap load, hot swap) that can be armed to
// inject errors, latency, torn writes, panics, or hard process exits at
// exactly the moment a test chooses.
//
// The package compiles in two shapes, selected by the `faults` build tag:
//
//   - release builds (no tag): Inject, Arm, WrapWriter, and Reset are
//     inlinable no-ops with zero allocations and zero branches on armed
//     state, so the //memes:noalloc serve path pays nothing for carrying
//     the points;
//   - chaos builds (-tags faults): points are armed from the MEMES_FAULTS
//     environment variable (or Arm) and fire deterministically.
//
// The arming grammar is one or more `point=action` clauses separated by
// semicolons, each with optional comma-separated options:
//
//	MEMES_FAULTS='journal.append.write=error,after=3;snapshot.rename=exit'
//
// Actions: error (return an injected error), latency (sleep, see delay=),
// torn (a WrapWriter-wrapped writer persists only a prefix of the buffer,
// then errors — or hard-exits with then=exit), panic, exit (os.Exit, no
// deferred functions run: the process-crash model).
//
// Activation options: after=N fires from the Nth hit of the point on
// (default 1); times=N caps the number of activations (default unlimited);
// p=F with seed=S activates each eligible hit with probability F drawn from
// a splitmix64 stream seeded by S — the package's only randomness, fully
// reproducible from the seed, never the ambient math/rand; delay=D sets the
// latency duration; code=N the exit status.
//
// Every fault point is named where it is called; grep for faults.Inject to
// enumerate them.
package faults

import "errors"

// ErrInjected is the sentinel every injected error wraps, so call sites and
// tests can distinguish harness-made failures from organic ones with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// ExitCode is the status an exit-action fault (and a torn write armed with
// then=exit) terminates the process with. Chaos harnesses assert on it to
// prove the child died at the armed point rather than from an organic crash.
const ExitCode = 17
