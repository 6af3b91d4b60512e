//go:build simdebug

package bus

import "testing"

// Under -tags simdebug, an arbiter holding more requests than its capacity
// must panic on the next bounds check.
func TestArbiterCheckBoundsPanics(t *testing.T) {
	a := NewArbiter("test", 1)
	// File two requests past Enqueue's capacity check: a capacity-1
	// arbiter holding two is a state no legal Enqueue/EnqueueDemand
	// sequence can reach.
	a.insert(&Request{ID: 1})
	a.insert(&Request{ID: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("checkBounds did not panic with 2 requests in a capacity-1 arbiter")
		}
	}()
	a.checkBounds()
}
