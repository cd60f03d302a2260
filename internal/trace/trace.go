// Package trace defines the branch-event stream representation shared by the
// workload generators, the speculation controllers, and the simulation
// harnesses.
//
// A stream is the functional-simulation abstraction used throughout the
// paper's Sections 2 and 3: program execution is reduced to the sequence of
// dynamic conditional-branch instances, each identified by its static branch,
// its outcome, and the number of dynamic instructions it accounts for.
package trace

// BranchID identifies a static conditional branch within one workload.
// IDs are dense, starting at zero, so implementations may index slices by it.
type BranchID uint32

// Event is one dynamic execution of a static conditional branch.
type Event struct {
	// Branch is the static branch that executed.
	Branch BranchID
	// Taken reports the branch outcome.
	Taken bool
	// Gap is the number of dynamic instructions attributed to this event:
	// the instructions executed since the previous event, including the
	// branch itself. It is always at least 1.
	Gap uint32
}

// Stream produces a finite sequence of events.
//
// Next returns the next event and true, or a zero Event and false once the
// stream is exhausted. Streams are single-use unless documented otherwise.
type Stream interface {
	Next() (Event, bool)
}

// SliceStream replays a fixed slice of events. Reset rewinds it, so it can
// be replayed.
type SliceStream struct {
	events []Event
	pos    int
}

// NewSliceStream returns a stream over events. The slice is not copied.
func NewSliceStream(events []Event) *SliceStream {
	return &SliceStream{events: events}
}

// Next implements Stream.
func (s *SliceStream) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, true
}

// Reset rewinds the stream to its first event.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of events in the stream.
func (s *SliceStream) Len() int { return len(s.events) }

// Collect drains a stream into a slice. Intended for tests and small runs;
// full-scale workloads should be consumed incrementally.
func Collect(s Stream) []Event {
	var events []Event
	for {
		ev, ok := s.Next()
		if !ok {
			return events
		}
		events = append(events, ev)
	}
}

// Head returns a stream that yields at most n events from s.
func Head(s Stream, n uint64) Stream { return &headStream{s: s, left: n} }

type headStream struct {
	s    Stream
	left uint64
}

func (h *headStream) Next() (Event, bool) {
	if h.left == 0 {
		return Event{}, false
	}
	h.left--
	return h.s.Next()
}

// Filter returns a stream yielding only the events of s for which keep
// returns true. Instruction gaps of dropped events are folded into the next
// kept event so that instruction counts are preserved.
func Filter(s Stream, keep func(Event) bool) Stream {
	return &filterStream{s: s, keep: keep}
}

type filterStream struct {
	s    Stream
	keep func(Event) bool
}

func (f *filterStream) Next() (Event, bool) {
	var carry uint64
	for {
		ev, ok := f.s.Next()
		if !ok {
			return Event{}, false
		}
		if f.keep(ev) {
			g := carry + uint64(ev.Gap)
			if g > 1<<32-1 {
				g = 1<<32 - 1
			}
			ev.Gap = uint32(g)
			return ev, true
		}
		carry += uint64(ev.Gap)
	}
}

// Counter wraps a stream and tracks the running totals of events and
// instructions that have passed through it.
type Counter struct {
	S      Stream
	Events uint64
	Instrs uint64
}

// Next implements Stream.
func (c *Counter) Next() (Event, bool) {
	ev, ok := c.S.Next()
	if ok {
		c.Events++
		c.Instrs += uint64(ev.Gap)
	}
	return ev, ok
}
