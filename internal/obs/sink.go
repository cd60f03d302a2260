package obs

import (
	"fmt"
	"io"
	"sort"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// Record is one controller lifecycle transition as captured by a Sink: the
// core.Transition payload plus the sink's global sequence number, so exports
// order totally even when the ring has wrapped.
type Record struct {
	// Seq is the 0-based index of this transition among all transitions
	// the sink has observed (including ones the ring later dropped).
	Seq     uint64
	Branch  trace.BranchID
	From    core.State
	To      core.State
	Instr   uint64
	Exec    uint64
	Counter uint32
}

// Sink is an allocation-conscious ring buffer of controller lifecycle
// transitions. Attach it to a core.Controller and every classification
// change (monitor→biased selection, eviction, revisit, squash-triggered
// demotion, retiral) is recorded with its event index, branch ID, and
// saturating-counter value. When the ring fills, the oldest records are
// overwritten and counted as dropped.
//
// The sink observes; it never feeds back. Attaching one must not change a
// single controller decision (TestSinkDoesNotChangeDecisions pins this), so
// every later experiment can run traced without invalidating its numbers.
//
// Sink is not safe for concurrent use, matching core.Controller.
type Sink struct {
	buf     []Record
	next    int // ring position of the next write
	n       int // number of valid records in buf
	seq     uint64
	dropped uint64
}

// DefaultSinkCapacity bounds a sink's memory when the caller does not care:
// 64k records ≈ 3 MiB, enough for every calibrated workload's full
// transition history at default scale.
const DefaultSinkCapacity = 1 << 16

// NewSink returns a sink retaining up to capacity records (capacity < 1
// selects DefaultSinkCapacity). The buffer is allocated once, up front.
func NewSink(capacity int) *Sink {
	if capacity < 1 {
		capacity = DefaultSinkCapacity
	}
	return &Sink{buf: make([]Record, capacity)}
}

// Attach registers the sink as ctl's transition hook, replacing any previous
// hook. It works for a controller under any policy: every Controller steps
// through its Rule and reports each transition the same way.
func (s *Sink) Attach(ctl *core.Controller) {
	ctl.OnTransition = s.Record
}

// Record appends one transition. It is the core.Controller.OnTransition
// callback and does not allocate.
func (s *Sink) Record(tr core.Transition) {
	if s.n == len(s.buf) {
		s.dropped++
	} else {
		s.n++
	}
	s.buf[s.next] = Record{
		Seq:     s.seq,
		Branch:  tr.Branch,
		From:    tr.From,
		To:      tr.To,
		Instr:   tr.Instr,
		Exec:    tr.Exec,
		Counter: tr.Counter,
	}
	s.seq++
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
	}
}

// Len returns the number of retained records.
func (s *Sink) Len() int { return s.n }

// Total returns the number of transitions observed, including dropped ones.
func (s *Sink) Total() uint64 { return s.seq }

// Dropped returns how many records the ring overwrote.
func (s *Sink) Dropped() uint64 { return s.dropped }

// Records returns the retained records, oldest first.
func (s *Sink) Records() []Record {
	out := make([]Record, 0, s.n)
	start := s.next - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

// WriteJSONL writes the retained records as JSON lines with a fixed field
// order, one record per line. The output is byte-deterministic: the same
// seed and parameters produce the identical file.
func (s *Sink) WriteJSONL(w io.Writer) error {
	for _, r := range s.Records() {
		_, err := fmt.Fprintf(w,
			`{"seq":%d,"branch":%d,"from":%q,"to":%q,"instr":%d,"exec":%d,"counter":%d}`+"\n",
			r.Seq, r.Branch, r.From.String(), r.To.String(), r.Instr, r.Exec, r.Counter)
		if err != nil {
			return err
		}
	}
	return nil
}

// Segment is one constant-state span of a branch's timeline, covering
// dynamic instruction counts [FromInstr, ToInstr).
type Segment struct {
	State     core.State
	FromInstr uint64
	ToInstr   uint64
}

// BranchTimeline is one branch's state trajectory: the per-branch view of
// the paper's Figures 3, 6 and 9, reconstructed from a transition log.
type BranchTimeline struct {
	Branch      trace.BranchID
	Transitions int
	Evictions   int // biased→monitor demotions
	Final       core.State
	Segments    []Segment
}

// BuildTimeline reconstructs per-branch state timelines from a transition
// log (oldest first, as Sink.Records returns). endInstr closes the last
// segment of every branch; branches are returned in ascending ID order.
// Branches with no recorded transition do not appear.
func BuildTimeline(records []Record, endInstr uint64) []BranchTimeline {
	byBranch := make(map[trace.BranchID]*BranchTimeline)
	for _, r := range records {
		tl := byBranch[r.Branch]
		if tl == nil {
			tl = &BranchTimeline{Branch: r.Branch}
			// The first record's From state has held since instr 0
			// (every branch starts in monitor; after a ring wrap the
			// From state still opens the reconstructed window).
			tl.Segments = append(tl.Segments, Segment{State: r.From})
			byBranch[r.Branch] = tl
		}
		tl.Segments[len(tl.Segments)-1].ToInstr = r.Instr
		tl.Segments = append(tl.Segments, Segment{State: r.To, FromInstr: r.Instr})
		tl.Transitions++
		if r.From == core.Biased && r.To == core.Monitor {
			tl.Evictions++
		}
	}
	out := make([]BranchTimeline, 0, len(byBranch))
	for _, tl := range byBranch {
		last := &tl.Segments[len(tl.Segments)-1]
		last.ToInstr = endInstr
		if last.ToInstr < last.FromInstr {
			last.ToInstr = last.FromInstr
		}
		tl.Final = last.State
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Branch < out[j].Branch })
	return out
}
