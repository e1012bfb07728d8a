// Known-bad corpus for the snapfreeze checker: writes to frozen fields
// of possibly-published values, publish-then-mutate in one body,
// element writes and replacement of append-only slices, and a published
// type with an unannotated field.

package snapfreeze

import "sync/atomic"

// state is published via badPtr below; its fields are annotated, and the
// functions underneath violate the contract.
type state struct {
	gen   uint64   // frozen after publish
	arena []uint32 // append-only
}

var badPtr atomic.Pointer[state]

// mutateParam writes a frozen field of a parameter: the caller may have
// published the value already, so the write is flagged no matter who
// calls this helper.
func mutateParam(s *state) {
	s.gen = 42 // want "frozen after publish"
}

// bumpParam is the IncDec form of the same bug.
func bumpParam(s *state) {
	s.gen++ // want "frozen after publish"
}

// publishThenMutate loses freshness at the Store: the value is shared
// with concurrent readers from that point on.
func publishThenMutate() {
	s := &state{}
	s.gen = 1 // fresh: still fine
	badPtr.Store(s)
	s.gen = 2 // want "frozen after publish"
}

// stompElement writes into an append-only slice in place.
func stompElement(s *state) {
	s.arena[0] = 1 // want "append-only"
}

// replaceArena swaps the whole append-only slice out from under readers.
func replaceArena(s *state) {
	s.arena = nil // want "may only grow"
}

// shiftArena moves the slice to a fresh array but starts it non-empty,
// so every element lands at a new index.
func shiftArena(s *state) {
	s.arena = append(make([]uint32, 1, 2*len(s.arena)), s.arena...) // want "may only grow"
}

// dropFirst moves the slice to a fresh array without its first element.
func dropFirst(s *state) {
	s.arena = append(make([]uint32, 0, len(s.arena)), s.arena[1:]...) // want "may only grow"
}

// copyInto mutates append-only elements through the copy builtin.
func copyInto(s *state, src []uint32) {
	copy(s.arena, src) // want "append-only"
}

// escaped values are no longer fresh: the callee may have published them.
func handOff(publish func(*state)) {
	s := &state{}
	publish(s)
	s.gen = 3 // want "frozen after publish"
}

// leaky is published over a tagged channel send but its field carries no
// annotation, so the completeness rule fires at the declaration.
type leaky struct {
	count int // want "carries no"
}

func sendOff(ch chan *leaky) {
	l := &leaky{}
	ch <- l // published
}
