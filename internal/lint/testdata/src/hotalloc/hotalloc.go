// Package hotalloc exercises the simlint:hotpath policy: a go statement
// inside a marked function is rejected; allocation shapes are left to the
// compiler's escape analysis (cmd/allocheck) and are not reported here.
package hotalloc

type Event struct {
	Cycle int64
	Addr  uint32
}

type Ring struct {
	buf []Event
	n   uint64
}

// Emit is the per-µop fast path.
//
// simlint:hotpath
func (r *Ring) Emit(e Event) {
	e2 := Event{Cycle: e.Cycle, Addr: e.Addr} // value literal: ok
	r.buf[r.n%uint64(len(r.buf))] = e2
	r.n++
}

// Bad gathers the shapes hotalloc once rejected. Only the go statement is
// still reported: the compiler keeps the others on the stack here, and
// allocheck fails any that escape.
//
// simlint:hotpath
func (r *Ring) Bad(e Event) {
	f := func() {}
	f()
	s := make([]Event, 4)
	_ = s
	p := new(Event)
	_ = p
	q := &Event{Cycle: 1}
	_ = q
	m := map[uint32]int{}
	_ = m
	sl := []int{1, 2}
	_ = sl
	go f() // want `go statement inside hotpath function \(\*Ring\).Bad`
	defer f()
}

// Slow is unmarked: it may spawn goroutines freely.
func (r *Ring) Slow() {
	go r.Emit(Event{})
}

// Waived documents a deliberate slow-path goroutine.
//
// simlint:hotpath
func (r *Ring) Waived(miss bool) {
	if miss {
		//simlint:allow hotalloc -- refill runs off the miss path
		go r.Slow()
	}
}
