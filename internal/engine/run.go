package engine

import (
	"encoding/binary"

	"sqlts/internal/fault"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// Run is a chunk of consecutive clusters for FindRun, and what searching it
// left: the one way a caller drives clusters through an executor. The
// clusters are searched in order; a cluster's index in the sink's calls is
// its index in Seqs.
type Run struct {
	// Seqs are the clusters' sequences; Projs and Masks, when not nil, hold
	// each cluster's prebuilt projection and selection bitmasks (see
	// UseProjection and UseMasks), indexed like Seqs.
	Seqs  [][]storage.Row
	Projs []*storage.Projection
	Masks []*pattern.MaskSet
	// Log is the block the run's cluster log is appended to: one entry per
	// searched cluster (putClusterStat), the run of them in Entries.
	Log *Block[byte]
	// Sink is handed what the search finds.
	Sink RunSink

	// Stats sums the counters of every cluster searched, and Entries is the
	// run of the log FindRun wrote, both set by a FindRun that succeeds.
	Stats   Stats
	Entries []byte
}

// RunSink is what a Run hands its clusters to. It is an interface, not a
// set of closures, so that a caller's sink is one object that outlives its
// runs rather than closures allocated for each.
type RunSink interface {
	// Enter is called before each cluster's search on the per-cluster loop;
	// an error stops the run. The chunk-wide pure loop never calls it (see
	// OPS.FindRun).
	Enter(i int) error
	// Found is handed every cluster with a match, after its search: its
	// matches and counters. An error stops the run.
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

// finder is one executor's search of one sequence: FindAll, except that a
// traced run's path runs on from the last search instead of restarting.
type finder interface {
	find(seq []storage.Row) ([]Match, Stats)
}

// runEach is the generic run loop, the one every executor has: before each
// cluster it calls the sink's Enter, then hands the executor the cluster's
// projection and masks, searches it with f, writes its log entry and hands
// its matches to the sink's Found. A traced run's path is the
// concatenation of the clusters' paths, in cluster order. The flight is
// ticked every TickRows rows and at the end, also when the run fails.
func (e *evaluator) runEach(f finder, r *Run) error {
	e.trace = e.trace[:0]
	w := newLogWriter(r.Log)
	var p progress
	defer p.tick(r.Sink)
	var total Stats
	for i, seq := range r.Seqs {
		if err := r.Sink.Enter(i); err != nil {
			return err
		}
		if r.Projs != nil {
			e.nextProj = r.Projs[i]
		}
		if r.Masks != nil {
			e.nextMasks = r.Masks[i]
		}
		ms, st := f.find(seq)
		total.Add(st)
		w.put(len(seq), st)
		if len(ms) > 0 {
			if err := r.Sink.Found(i, ms, st); err != nil {
				return err
			}
		}
		if p.add(len(seq), st); p.rows >= TickRows {
			p.tick(r.Sink)
		}
	}
	r.Stats, r.Entries = total, w.run()
	return nil
}

// bulkRun reports whether every probe of a search over r's masks is
// answered by a mask alone and nothing observes probes one at a time: the
// condition reset sets allPure on, read once for the whole run.
func (e *evaluator) bulkRun(r *Run) bool {
	return r.Masks != nil && e.kern != nil && e.vec && e.kern.AllPure() && !e.doTrc && !fault.Active()
}

// The cluster log is a run's per-cluster stats, one entry per searched
// cluster in cluster order: the cluster's row count, PredEvals, Rollbacks
// and Matches as four uvarints — about four bytes for a ten-row cluster,
// and nothing for the collector to scan. A cluster's index is its position
// in the log.

// clusterStatMax is the most bytes one entry can take.
const clusterStatMax = 4 * binary.MaxVarintLen64

// putClusterStat writes one cluster's entry into buf, which has room for
// clusterStatMax bytes, and returns its length.
func putClusterStat(buf []byte, rows int, s Stats) int {
	n := binary.PutUvarint(buf, uint64(rows))
	n += binary.PutUvarint(buf[n:], uint64(s.PredEvals))
	n += binary.PutUvarint(buf[n:], uint64(s.Rollbacks))
	return n + binary.PutUvarint(buf[n:], uint64(s.Matches))
}

// NextClusterStat decodes the first entry of a cluster log and returns it
// with the rest of the log.
func NextClusterStat(log []byte) (rows int, s Stats, rest []byte) {
	next := func() uint64 {
		v, n := binary.Uvarint(log)
		log = log[n:]
		return v
	}
	rows = int(next())
	s = Stats{PredEvals: int64(next()), Rollbacks: int64(next()), Matches: int(next())}
	return rows, s, log
}

// logWriter appends a run's entries to a block: straight into the block's
// spare room while it has room for the entry.
type logWriter struct {
	b     *Block[byte]
	from  int
	spare []byte
}

func newLogWriter(b *Block[byte]) logWriter {
	from, spare := b.Spare(b.Len(), 0)
	return logWriter{b: b, from: from, spare: spare}
}

// put appends one cluster's entry. A short cluster's — four one-byte
// uvarints — is written in place by the inlined part.
func (w *logWriter) put(rows int, s Stats) {
	if uint64(rows)|uint64(s.PredEvals)|uint64(s.Rollbacks)|uint64(s.Matches) < 0x80 && len(w.spare) >= 4 {
		w.spare[0], w.spare[1], w.spare[2], w.spare[3] = byte(rows), byte(s.PredEvals), byte(s.Rollbacks), byte(s.Matches)
		w.spare = w.spare[4:]
		w.b.Extend(4)
		return
	}
	w.putLong(rows, s)
}

func (w *logWriter) putLong(rows int, s Stats) {
	if len(w.spare) >= clusterStatMax {
		n := putClusterStat(w.spare, rows, s)
		w.b.Extend(n)
		w.spare = w.spare[n:]
		return
	}
	// Short of room — the tail of a block reserved to the byte: encode
	// aside, append what it came to, and look again.
	var buf [clusterStatMax]byte
	w.from = w.b.Append(w.from, buf[:putClusterStat(buf[:], rows, s)]...)
	w.from, w.spare = w.b.Spare(w.from, 0)
}

// run returns the entries written.
func (w *logWriter) run() []byte { return w.b.Run(w.from) }
