package engine

import (
	"sqlts/internal/fault"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// Run is a chunk of consecutive clusters for FindRun, and what searching it
// left: the one way a caller drives clusters through an executor. The
// clusters [Lo, Hi) of Clusters are searched in order, block by block; a
// cluster's index in the sink's calls is its index in Clusters.
type Run struct {
	// Clusters holds the clusters' sequences; Masks, when not empty, each
	// cluster's prebuilt selection bitmasks (see UseMasks), indexed like
	// Clusters, and per block the Booking a partition memo made of them,
	// if any.
	Clusters storage.Blocks[[]storage.Row, struct{}]
	Masks    MaskBlocks
	Lo, Hi   int
	// Sink is handed what the search finds.
	Sink RunSink

	// Stats sums the counters of every cluster searched, set by a FindRun
	// that succeeds.
	Stats Stats
}

// MaskBlocks is a run's masks: a cluster's mask set per element, and per
// block the Booking of its clusters, the zero Booking when it has none.
type MaskBlocks = storage.Blocks[*pattern.MaskSet, Booking]

// RunSink is what a Run hands its clusters to. It is an interface, not a
// set of closures, so that a caller's sink is one object that outlives its
// runs rather than closures allocated for each.
type RunSink interface {
	// Enter is called before each cluster's search on the per-cluster loop;
	// an error stops the run. The chunk-wide pure loop never calls it (see
	// OPS.FindRun).
	Enter(i int) error
	// Found is handed every cluster with a match, after its search: its
	// matches and counters. The matches are the executor's scratch, valid
	// until Found returns. An error stops the run.
	Found(i int, ms []Match, s Stats) error
	// Tick is handed the flight progress of the clusters searched since the
	// last Tick: how many, their rows and their matches.
	Tick(clusters, rows, matches int64)
}

// TickRows is how many searched rows the per-cluster loop lets its flight
// ticks trail by: the sink's Tick is called once that many rows have
// accumulated and at the end, so on many small clusters the flight is not
// written once per cluster.
const TickRows = 256

// progress is the flight ticks a run has not handed to its sink yet.
type progress struct{ clusters, rows, matches int64 }

func (p *progress) add(rows int, s Stats) {
	p.clusters++
	p.rows += int64(rows)
	p.matches += int64(s.Matches)
}

// tick hands the ticks to the sink and starts over.
func (p *progress) tick(sink RunSink) {
	if p.clusters == 0 {
		return
	}
	sink.Tick(p.clusters, p.rows, p.matches)
	*p = progress{}
}

// runEach is the generic run loop, the one every executor has: block by
// block, before each cluster it calls the sink's Enter, then hands the
// executor the cluster's masks, searches it with f's FindAll and hands its
// matches to the sink's Found, rewinding the blocks they were carved from
// once Found returns. The flight is ticked every TickRows rows and at the
// end, also when the run fails.
func (e *evaluator) runEach(f Executor, r *Run) error {
	e.scratch()
	var p progress
	defer p.tick(r.Sink)
	var total Stats
	for lo := r.Lo; lo < r.Hi; {
		seqs, masks := r.Clusters.Span(lo, r.Hi), r.Masks.Span(lo, r.Hi)
		for k, seq := range seqs {
			if err := r.Sink.Enter(lo + k); err != nil {
				return err
			}
			if masks != nil {
				e.nextMasks = masks[k]
			}
			ms, st := f.FindAll(seq)
			total.Add(st)
			if len(ms) > 0 {
				err := r.Sink.Found(lo+k, ms, st)
				e.rewind()
				if err != nil {
					return err
				}
			}
			if p.add(len(seq), st); p.rows >= TickRows {
				p.tick(r.Sink)
			}
		}
		lo += len(seqs)
	}
	r.Stats = total
	return nil
}

// bulkRun reports whether every probe of a search over r's masks is
// answered by a mask alone and nothing observes probes one at a time: the
// condition reset sets allPure on, read once for the whole run.
func (e *evaluator) bulkRun(r *Run) bool {
	return r.Masks.Len() > 0 && e.kern != nil && e.vec && e.kern.AllPure() && !e.doTrc && !fault.Active()
}
