package main

// The end-to-end pass: untraced, product defaults, latency timed here
// with time.Now and never read from internal/obs.
//
// One pass is: generate inputs from the seed; set up several times and
// keep the median (setup_s); establish the reference result against the
// naive executor; a counted phase of a fixed number of operations, which
// yields the metrics that repeat exactly (pred-evals, allocations, live
// heap); then three timed rounds that share -seconds, which yield
// throughput and latency. A round is a run of short slices with the
// calibration kernel (calib.go) timed between them, and every timing is
// scaled to the reference speed, so a spell in which the shared box runs
// a third slower does not read as a slower program.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// client is one closed-loop client: it sends its next operation only
// when the previous one has completed, and keeps what it observed.
type client struct {
	next      int     // index of its next operation
	lat       []int64 // per-op latency, ns
	busy      time.Duration
	predEvals int64
	failed    int
}

// newClients makes n clients whose latency buffers hold capHint
// operations, so that the timed loop itself allocates nothing.
func newClients(n, capHint int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{lat: make([]int64, 0, max(capHint, 64))}
	}
	return cs
}

// run sends operations until the client has sent maxOps more
// (maxOps > 0) or dur has elapsed, whichever the caller asked for.
func (c *client) run(inst instance, maxOps int, dur time.Duration) {
	start := time.Now()
	for n := 0; ; n++ {
		if maxOps > 0 && n >= maxOps {
			return
		}
		if maxOps <= 0 && time.Since(start) >= dur {
			return
		}
		d, pe, ok := inst.op(c.next)
		c.next++
		c.lat = append(c.lat, d.Nanoseconds())
		c.busy += d
		c.predEvals += pe
		if !ok {
			c.failed++
		}
	}
}

// drive runs every client at once, each in its own closed loop. A lone
// client runs on the caller's goroutine.
func drive(inst instance, cs []*client, maxOps int, dur time.Duration) {
	if len(cs) == 1 {
		cs[0].run(inst, maxOps, dur)
		return
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(inst, maxOps, dur)
		}()
	}
	wg.Wait()
}

// totals is what a group of clients observed between two marks.
type totals struct {
	ops       int
	busy      time.Duration
	predEvals int64
	failed    int
}

func mark(cs []*client) totals {
	var t totals
	for _, c := range cs {
		t.ops += len(c.lat)
		t.busy += c.busy
		t.predEvals += c.predEvals
		t.failed += c.failed
	}
	return t
}

func (t totals) since(from totals) totals {
	return totals{t.ops - from.ops, t.busy - from.busy, t.predEvals - from.predEvals, t.failed - from.failed}
}

// throughput is completed ops per second of client time: ops ÷ (busy
// time ÷ clients). Busy time is the time inside library calls, so the
// benchmark's own untimed work (dealing statements, periodic naive
// checks) does not count against the program.
func (t totals) throughput(clients int) float64 {
	if t.busy <= 0 {
		return 0
	}
	return float64(t.ops) * float64(clients) / t.busy.Seconds()
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// roundResult is one timed round, kept in the document so the spread
// between rounds is visible. Its timings are normalised like the
// metrics'; RawThroughputOps and CalibNs say what the clock read.
type roundResult struct {
	Slices           int     `json:"slices"`
	Ops              int     `json:"ops"`
	BusyS            float64 `json:"busy_s"`
	ThroughputOps    float64 `json:"throughput_ops_s"`
	P50Us            float64 `json:"op_p50_us"`
	RawThroughputOps float64 `json:"raw_throughput_ops_s"`
	CalibNs          int64   `json:"calib_ns"`
}

const (
	rounds = 3
	// sliceDur is how long the clients run between two calibrations:
	// long enough that the kernel (about 7 ms) costs a tenth of the
	// phase, short enough that the machine rarely changes speed inside.
	sliceDur = 60 * time.Millisecond
)

// tally counts a pass's operations; an op that errs or fails
// verification is failed, and the first few reasons are kept.
type tally struct {
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Errors) < 8 {
		t.Errors = append(t.Errors, fmt.Sprintf(format, args...))
	}
}

// e2eResult is one workload's end-to-end pass.
type e2eResult struct {
	tally
	InputsSHA256 string        `json:"inputs_sha256"`
	Clients      int           `json:"clients"`
	Reference    *reference    `json:"reference"`
	SetupRuns    []float64     `json:"setup_runs_s"`
	CountedOps   int           `json:"counted_ops"`
	Rounds       []roundResult `json:"rounds"`
	P95Samples   int           `json:"op_p95_samples"`
	// LatencyUs is the latency distribution around the declared p95 (p50,
	// p90, p95, p99), at the reference speed.
	LatencyUs map[string]float64 `json:"latency_us"`
	// Speed is the machine's median speed over the timed slices relative
	// to the reference the timings are normalised to; RawThroughputOps is
	// throughput_ops_s as the clock read it.
	Speed            float64            `json:"speed"`
	RawThroughputOps float64            `json:"raw_throughput_ops_s"`
	Metrics          map[string]float64 `json:"metrics"`
}

// setUpRepeatedly sets the workload up until the budget is spent (at
// least minReps times, at most maxReps) and returns the last instance
// with every set-up's duration at the reference speed: the kernel is
// timed before the first set-up, after the last, and between set-ups
// whenever sliceDur has passed since it last was.
func setUpRepeatedly(w *workload, in *inputs, minReps, maxReps int, budget time.Duration) (instance, []float64, error) {
	var inst instance
	type rep struct {
		d   time.Duration
		gap int // between calibration samples gap and gap+1
	}
	var reps []rep
	samples := []time.Duration{calibrate()}
	begin := time.Now()
	last := begin
	for len(reps) < minReps || (len(reps) < maxReps && time.Since(begin) < budget) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		next, err := w.setup(in)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		reps = append(reps, rep{time.Since(t0), len(samples) - 1})
		inst = next
		if time.Since(last) >= sliceDur {
			samples = append(samples, calibrate())
			last = time.Now()
		}
	}
	samples = append(samples, calibrate())
	runs := make([]float64, len(reps))
	for i, r := range reps {
		runs[i] = r.d.Seconds() * speedAt(samples, r.gap)
	}
	return inst, runs, nil
}

// counted is a phase of a fixed number of operations with the
// allocations it made.
type counted struct {
	totals
	mallocs, bytes uint64
}

// runCounted has each of n clients send perClient operations.
func runCounted(inst instance, n, perClient int) counted {
	cs := newClients(n, perClient)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drive(inst, cs, perClient, 0)
	runtime.ReadMemStats(&after)
	return counted{mark(cs), after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// slice is one stretch of a timed round between two calibrations.
type slice struct {
	totals
	lat [][]int64 // each client's latencies in it
	gap int       // between the round's calibration samples gap and gap+1
}

// runE2E measures one workload end to end.
func runE2E(w *workload, in *inputs, cfg config) (*e2eResult, error) {
	res := &e2eResult{Clients: w.clients(), InputsSHA256: in.sha256, Metrics: map[string]float64{}}

	minReps, maxReps, budget := 3, 400, 1500*time.Millisecond
	if cfg.quick {
		minReps, maxReps = 1, 1
	}
	inst, setups, err := setUpRepeatedly(w, in, minReps, maxReps, budget)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res.SetupRuns = setups

	ref, err := inst.reference()
	if err != nil {
		return nil, fmt.Errorf("reference result: %w", err)
	}
	res.Reference = ref
	if err := checkPins(w.name, cfg.seed, in.sha256, ref); err != nil {
		res.fail("%v", err)
	}

	// Counted phase: a fixed number of ops, so its per-op counts and the
	// heap it leaves behind compare run to run whatever the machine's
	// speed. It doubles as the warm-up of the timed rounds.
	perClient := max(1, cfg.scaleOps(w.countedOps)/res.Clients)
	runtime.GC()
	cp := runCounted(inst, res.Clients, perClient)
	res.CountedOps = cp.ops
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Attempted += cp.ops
	res.Failed += cp.failed
	if err := inst.check(); err != nil {
		res.fail("after the counted phase: %v", err)
	}
	opTime := cp.busy / time.Duration(cp.ops)

	// Timed rounds. Each is a run of slices with the calibration kernel
	// before, between and after them; a slice's throughput and latencies
	// are scaled by the machine's speed around it.
	roundDur := cfg.budget() / rounds
	capHint := int(2*roundDur/max(opTime, time.Microsecond)) + 1024
	var tputs, rawTputs, speeds, pooled []float64
	for i := 0; i < rounds; i++ {
		if err := inst.newRound(); err != nil {
			return nil, err
		}
		cs := newClients(res.Clients, capHint)
		runtime.GC()
		var slices []slice
		samples := []time.Duration{calibrate()}
		for begin := time.Now(); len(slices) == 0 || time.Since(begin) < roundDur; {
			from := mark(cs)
			lens := make([]int, len(cs))
			for j, c := range cs {
				lens[j] = len(c.lat)
			}
			drive(inst, cs, 0, min(sliceDur, max(roundDur-time.Since(begin), time.Millisecond)))
			sl := slice{totals: mark(cs).since(from), gap: len(samples) - 1}
			for j, c := range cs {
				sl.lat = append(sl.lat, c.lat[lens[j]:])
			}
			slices = append(slices, sl)
			samples = append(samples, calibrate())
		}
		all := mark(cs)
		res.Attempted += all.ops
		res.Failed += all.failed
		if err := inst.check(); err != nil {
			res.fail("after a timed round: %v", err)
		}

		var roundTputs, roundLat, calibs []float64
		for _, sl := range slices {
			speed := speedAt(samples, sl.gap)
			speeds = append(speeds, speed)
			rawTputs = append(rawTputs, sl.throughput(res.Clients))
			roundTputs = append(roundTputs, sl.throughput(res.Clients)/speed)
			for _, lat := range sl.lat {
				for _, ns := range lat {
					roundLat = append(roundLat, float64(ns)*speed)
				}
			}
		}
		for _, d := range samples {
			calibs = append(calibs, float64(d))
		}
		tputs = append(tputs, roundTputs...)
		pooled = append(pooled, roundLat...)
		sort.Float64s(roundLat)
		res.Rounds = append(res.Rounds, roundResult{
			Slices:           len(slices),
			Ops:              all.ops,
			BusyS:            all.busy.Seconds(),
			ThroughputOps:    medianFloat(roundTputs),
			P50Us:            quantile(roundLat, 0.50) / 1e3,
			RawThroughputOps: all.throughput(res.Clients),
			CalibNs:          int64(medianFloat(calibs)),
		})
	}
	sort.Float64s(pooled)
	res.P95Samples = len(pooled)
	res.LatencyUs = map[string]float64{}
	for name, q := range map[string]float64{"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99} {
		res.LatencyUs[name] = quantile(pooled, q) / 1e3
	}
	res.Speed = medianFloat(speeds)
	res.RawThroughputOps = medianFloat(rawTputs)

	m := res.Metrics
	m["throughput_ops_s"] = medianFloat(tputs)
	m["op_p95_us"] = res.LatencyUs["p95"]
	m["pred_evals_per_op"] = float64(cp.predEvals) / float64(cp.ops)
	m["allocs_per_op"] = float64(cp.mallocs) / float64(cp.ops)
	m["alloc_bytes_per_op"] = float64(cp.bytes) / float64(cp.ops)
	m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	m["verified_ops_pct"] = 100 * float64(res.Attempted-res.Failed) / float64(res.Attempted)
	m["setup_s"] = medianFloat(setups)
	return res, nil
}
