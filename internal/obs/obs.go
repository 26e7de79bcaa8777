// Package obs is the repository's observability substrate: atomic
// counters, gauges and fixed-bucket histograms in a process-wide registry,
// plus a Stage handle that times a pipeline stage into one histogram and
// one trace span (internal/obs/trace) at once. It exists so the questions the
// paper's evaluation asks about work — how many cost evaluations Algorithm 1
// spent, whether the plan cache is hot, whether the reconstructor pool is
// recycling — can be answered on a live run instead of re-derived offline.
//
// Design contract (the reason this package may sit inside the LMS hot
// loop):
//
//   - Disabled (the default) every instrument is a no-op behind one atomic
//     load; nothing allocates and no state changes. Enabled, an increment
//     is a single atomic add (histograms add a branch-free binary search).
//   - Metrics never feed back into computation. Enabling or disabling
//     collection cannot change a single output bit of any pipeline — the
//     golden vectors pass identically either way.
//   - Metric instances are cheap pointers interned in the registry;
//     hot paths hoist the lookup into a package-level var so the map is
//     touched once per process, not per increment.
//
// Collection is enabled explicitly with Enable (cmd/bistlab's -metrics
// flag) or for a whole process with the BIST_METRICS environment variable
// (any value but "" and "0"), mirroring par's BIST_WORKERS knob.
package obs

import (
	"os"
	"sync/atomic"
)

// enabled gates every instrument in the package. A package-global (rather
// than per-registry) flag keeps the disabled fast path to exactly one
// atomic load with no pointer chase.
var enabled atomic.Bool

func init() {
	if s := os.Getenv("BIST_METRICS"); s != "" && s != "0" {
		enabled.Store(true)
	}
}

// Enabled reports whether collection is active.
func Enabled() bool { return enabled.Load() }

// Enable turns collection on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns collection off. Accumulated values are kept (snapshots
// still read them); use Reset to zero them.
func Disable() { enabled.Store(false) }

// SetEnabled sets the collection state and returns the previous one, which
// makes save/restore in tests a one-liner.
func SetEnabled(on bool) bool { return enabled.Swap(on) }
