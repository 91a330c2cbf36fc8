package profile

import "pmutrust/internal/program"

// Edge is a control-flow edge between two basic blocks (block IDs).
type Edge struct {
	From, To int
}

// EdgeProfile holds (estimated or exact) traversal counts for block-level
// control-flow edges. Edge profiles are the input format of profile-guided
// optimization; §2.1 names accurate basic-block graphs as a primary use of
// the profiles this repository studies.
type EdgeProfile struct {
	// Prog is the profiled program.
	Prog *program.Program
	// Counts maps each traversed edge to its (estimated) traversal count.
	Counts map[Edge]float64
}

// NewEdgeProfile returns an empty edge profile for p.
func NewEdgeProfile(p *program.Program) *EdgeProfile {
	return &EdgeProfile{Prog: p, Counts: make(map[Edge]float64)}
}

// Add records w traversals of the edge from → to.
func (ep *EdgeProfile) Add(from, to int, w float64) {
	ep.Counts[Edge{From: from, To: to}] += w
}

// Total returns the total traversal mass.
func (ep *EdgeProfile) Total() float64 {
	var sum float64
	for _, c := range ep.Counts {
		sum += c
	}
	return sum
}

// LoopStat describes one loop discovered from backedges.
type LoopStat struct {
	// Header is the loop-header block ID (the target of the backedge).
	Header int
	// Backedges is the traversal count of backedges into the header.
	Backedges float64
	// Entries is the traversal count of non-backedge edges into the
	// header (loop entries).
	Entries float64
	// TripCount is the average iterations per entry:
	// (Backedges + Entries) / Entries.
	TripCount float64
}

// TripCounts derives loop trip counts from an edge profile. A backedge is
// an intra-function edge whose target does not lie after its source
// (To <= From in block layout order). §2.1: "loop tripcounts are widely
// used for a variety of purposes, but are hard to obtain with pure EBS
// methods" — with an LBR-derived edge profile they fall out directly.
func (ep *EdgeProfile) TripCounts() map[int]LoopStat {
	p := ep.Prog
	stats := make(map[int]LoopStat)
	for e, c := range ep.Counts {
		fromBlk, toBlk := p.Blocks[e.From], p.Blocks[e.To]
		if fromBlk.Func != toBlk.Func || e.To > e.From {
			continue
		}
		s := stats[e.To]
		s.Header = e.To
		s.Backedges += c
		stats[e.To] = s
	}
	for h, s := range stats {
		for e, c := range ep.Counts {
			if e.To != h {
				continue
			}
			isBackedge := ep.Prog.Blocks[e.From].Func == ep.Prog.Blocks[h].Func && h <= e.From
			if !isBackedge {
				s.Entries += c
			}
		}
		if s.Entries > 0 {
			s.TripCount = (s.Backedges + s.Entries) / s.Entries
		}
		stats[h] = s
	}
	return stats
}
