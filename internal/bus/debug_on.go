//go:build simdebug

package bus

import "fmt"

// debugInvariants enables the arbiter bounds assertions: every mutation of
// an arbiter's queue re-verifies it never exceeds its configured capacity.
// Normal builds (no -tags simdebug) compile the checks away; see
// debug_off.go.
const debugInvariants = true

// checkBounds panics when the arbiter holds more requests than its
// capacity — a squash/enqueue bookkeeping bug that release builds would let
// corrupt the paper's queue-pressure results silently.
func (a *Arbiter) checkBounds() {
	if a.n > a.cap {
		panic(fmt.Sprintf("bus: arbiter %q holds %d requests, capacity %d", a.name, a.n, a.cap))
	}
}
