package sqlts

// The cluster driver: the one way a batch query's clusters reach an
// executor. SQL-TS searches every CLUSTER BY group independently, so the
// driver's only parameter is how many workers share the ordered cluster
// list; whatever the count, rows, Stats, ClusterStats and Matches come
// out in cluster order, bit-identical to a one-worker run.

import (
	"encoding/binary"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"sqlts/internal/engine"
	"sqlts/internal/obs"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// chunksPerWorker is how many chunks the cluster list is cut into per
// worker: more than one so clusters of uneven cost still balance, few
// enough that claims and per-chunk buffers stay noise beside the search.
const chunksPerWorker = 4

// chunkSize is the number of consecutive clusters a worker searches per
// claim: the whole list for one worker, otherwise an even cut into
// chunksPerWorker chunks per worker.
func chunkSize(clusters, workers int) int {
	if workers <= 1 {
		return clusters
	}
	pieces := workers * chunksPerWorker
	return max(1, (clusters+pieces-1)/pieces)
}

// searchClusters runs the pattern over clusters[i] for every i (with its
// projection and mask set, when the run has them) and appends the
// outcome to res in cluster order. Up to opts.MaxWorkers goroutines claim
// chunks of consecutive clusters off an atomic counter, each chunk into
// its own fragment, stitched in chunk order once every worker has
// exited. With one worker — or one chunk — nothing is started: the whole
// range is searched on the calling goroutine straight into res, which is
// also how Trace runs. The first failure stops further claims; claimed
// chunks run out, and the error of the lowest-indexed failed cluster is
// returned, never a partial result.
func (q *Query) searchClusters(rc *runControl, res *Result, clusters [][]storage.Row, projs []*storage.Projection, masks []*pattern.MaskSet, opts RunOptions) error {
	n := len(clusters)
	workers := opts.MaxWorkers
	if opts.Trace {
		workers = 1 // the path buffer is appended in cluster order
		q.pathMu.Lock()
		q.lastPath = nil
		q.pathMu.Unlock()
	}
	chunk := chunkSize(n, workers)
	if chunk >= n {
		return q.searchChunk(rc, res, clusters, projs, masks, 0, n, opts)
	}
	nchunks := (n + chunk - 1) / chunk
	workers = min(workers, nchunks)

	frags := make([]Result, nchunks)
	errs := make([]error, nchunks)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// failed is read before the claim, so every claimed chunk is
			// searched: the chunks that ran are always a prefix, and the
			// lowest failed cluster does not depend on scheduling.
			for !failed.Load() {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * chunk
				errs[c] = q.searchChunk(rc, &frags[c], clusters, projs, masks, lo, min(lo+chunk, n), opts)
				if errs[c] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range frags {
		f := &frags[i]
		res.Stats.Add(f.Stats)
		res.clusters += f.clusters
		res.clusterLog = append(res.clusterLog, f.clusterLog...)
		res.Matches = append(res.Matches, f.Matches...)
		res.Rows = append(res.Rows, f.Rows...)
	}
	return nil
}

// flightFlushRows is how many searched rows a worker lets its progress
// ticks trail by: the flight's clusters, rows and matches are flushed once
// that many rows have gone unreported and at chunk end, so on many small
// clusters the shared counters are not written once per cluster.
const flightFlushRows = 256

// progress is one worker's unflushed flight ticks.
type progress struct {
	fl                      *obs.Flight
	clusters, rows, matches int64
}

func (p *progress) flush() {
	if p.clusters == 0 {
		return
	}
	p.fl.TickClusters(p.clusters)
	p.fl.TickRows(p.rows)
	p.fl.TickMatches(p.matches)
	p.clusters, p.rows, p.matches = 0, 0, 0
}

// appendClusterStat records one searched cluster in a Result's cluster
// log: its row count and counters as four uvarints — about four bytes for
// a ten-row cluster, and nothing for the collector to scan. The cluster's
// index is its position in the log.
func appendClusterStat(log []byte, rows int, s engine.Stats) []byte {
	log = binary.AppendUvarint(log, uint64(rows))
	log = binary.AppendUvarint(log, uint64(s.PredEvals))
	log = binary.AppendUvarint(log, uint64(s.Rollbacks))
	return binary.AppendUvarint(log, uint64(s.Matches))
}

// ClusterStats returns the per-cluster execution breakdown, in cluster
// order, whatever the worker count; summing the entries' Stats
// reproduces Result.Stats. The slice is built from the run's compact log
// on every call.
func (r *Result) ClusterStats() []ClusterStat {
	if r.clusters == 0 {
		return nil
	}
	out := make([]ClusterStat, r.clusters)
	log := r.clusterLog
	next := func() uint64 {
		v, n := binary.Uvarint(log)
		log = log[n:]
		return v
	}
	for i := range out {
		out[i] = ClusterStat{Cluster: i, Rows: int(next()), Stats: engine.Stats{
			PredEvals: int64(next()), Rollbacks: int64(next()), Matches: int(next()),
		}}
	}
	return out
}

// searchChunk searches clusters[lo:hi] with one executor of its own and
// appends each cluster's stats, matches and projected rows to out. It is
// the containment boundary of the search: an engine.Interrupt unwind
// comes back as its typed error and any other panic as a *PanicError.
// Before every cluster it fires the sqlts.execute.cluster fault point
// and takes the cooperative checkpoint (cancellation, kill, MaxMatches).
func (q *Query) searchChunk(rc *runControl, out *Result, clusters [][]storage.Row, projs []*storage.Projection, masks []*pattern.MaskSet, lo, hi int, opts RunOptions) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = q.recovered(r)
		}
	}()
	policy := engine.SkipPastLastRow
	if opts.Overlap {
		policy = engine.SkipToNextRow
	}
	ex := q.newExecutor(opts, policy)
	if rc != nil {
		ex.SetInterrupt(rc.interrupt())
	}
	if masks != nil {
		ex.SetVectorized(true)
	}
	compiled := q.plan.compiled
	width := len(compiled.OutNames)
	var values engine.Block[storage.Value] // the chunk's output rows are carved from it
	ticks := progress{fl: rc.flightRef()}
	defer ticks.flush() // also on the way out of a failed cluster
	// A ten-row cluster's entry is four bytes; the slack is a lone long
	// cluster's.
	out.clusterLog = make([]byte, 0, 4*(hi-lo)+8)
	for ci := lo; ci < hi; ci++ {
		if ferr := faultExecCluster.Fire(); ferr != nil {
			return ferr
		}
		if cerr := rc.check(); cerr != nil {
			return cerr
		}
		seq := clusters[ci]
		if projs != nil {
			ex.UseProjection(projs[ci])
		}
		if masks != nil {
			ex.UseMasks(masks[ci])
		}
		ms, stats := ex.FindAll(seq)
		out.Stats.Add(stats)
		out.clusters++
		out.clusterLog = appendClusterStat(out.clusterLog, len(seq), stats)
		if ticks.fl != nil {
			ticks.clusters++
			ticks.rows += int64(len(seq))
			ticks.matches += int64(stats.Matches)
			if ticks.rows >= flightFlushRows {
				ticks.flush()
			}
		}
		if opts.Trace {
			q.pathMu.Lock()
			q.lastPath = append(q.lastPath, pathOf(ex)...)
			q.pathMu.Unlock()
		}
		if len(ms) > 0 {
			out.Matches = append(out.Matches, ClusterMatches{Cluster: ci, Matches: ms})
		}
		for _, m := range ms {
			row, serr := compiled.EvalSelectInto(values.Take(width), seq, m.Spans)
			if serr != nil {
				return serr
			}
			out.Rows = append(out.Rows, row)
		}
		rc.addMatches(stats.Matches)
	}
	return nil
}

// recovered turns a recovered panic value into the run's error: an
// engine.Interrupt unwind is the typed cancellation/budget error it
// carries; anything else — a predicate bug, an injected fault — becomes
// a *PanicError with the statement key and the stack captured here, in
// the deferred call, while the panicking frames are still on it.
func (q *Query) recovered(r any) error {
	if in, ok := r.(engine.Interrupt); ok {
		return in.Err
	}
	return &PanicError{Statement: q.plan.key, Value: r, Stack: debug.Stack()}
}
