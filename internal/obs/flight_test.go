package obs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFlightNilSafety(t *testing.T) {
	var f *Flight
	f.SetPhase(PhaseRunning)
	f.SetClustersTotal(5)
	f.TickClusters(1)
	f.TickRows(1)
	f.TickMatches(1)
	f.TickPredEvals(1)
	f.TickPushes(1)
	f.SetCancel(func() {})
	if f.Kill(errors.New("x")) {
		t.Error("nil flight reported a successful kill")
	}
	if f.KillErr() != nil || f.ID() != 0 || f.SQL() != "" {
		t.Error("nil flight leaked state")
	}
	if s := f.Snapshot(); s.ID != 0 {
		t.Error("nil flight snapshot not zero")
	}
	var r *FlightRegistry
	if r.Register("q", "ops", 1, PhaseQueued) != nil || r.Len() != 0 || r.Snapshot() != nil {
		t.Error("nil registry not inert")
	}
}

func TestFlightKillSemantics(t *testing.T) {
	r := NewFlightRegistry()
	f := r.Register("SELECT 1", "ops", 2, PhaseQueued)
	if f.ID() == 0 || f.SQL() != "SELECT 1" {
		t.Fatalf("registration wrong: %+v", f.Snapshot())
	}
	canceled := 0
	f.SetCancel(func() { canceled++ })

	errA, errB := errors.New("a"), errors.New("b")
	if !r.Kill(f.ID(), errA) {
		t.Fatal("first kill did not win")
	}
	if r.Kill(f.ID(), errB) {
		t.Error("second kill won over the first")
	}
	if f.KillErr() != errA {
		t.Errorf("KillErr = %v, want the first kill's error", f.KillErr())
	}
	if canceled != 1 {
		t.Errorf("cancel invoked %d times, want 1", canceled)
	}
	if !f.Snapshot().Killed {
		t.Error("snapshot does not mark the flight killed")
	}
	if r.Kill(999, errA) {
		t.Error("kill of an unknown id reported success")
	}

	r.Deregister(f)
	if r.Len() != 0 {
		t.Error("deregister did not drain the registry")
	}
	// The flight object survives deregistration (snapshots taken by
	// holders keep working); only new kills by id miss.
	if f.KillErr() != errA {
		t.Error("kill state lost on deregistration")
	}
	if r.Kill(f.ID(), errB) {
		t.Error("kill by id succeeded after deregistration")
	}
}

func TestFlightRegistrySnapshotOrder(t *testing.T) {
	r := NewFlightRegistry()
	a := r.Register("a", "", 0, PhaseQueued)
	b := r.Register("b", "", 0, PhaseQueued)
	c := r.Register("c", "", 0, PhaseQueued)
	r.Deregister(b)
	snaps := r.Snapshot()
	if len(snaps) != 2 || snaps[0].ID != a.ID() || snaps[1].ID != c.ID() {
		t.Fatalf("snapshot order wrong: %+v", snaps)
	}
	if got := r.Get(c.ID()); got != c {
		t.Error("Get returned the wrong flight")
	}
}

func TestFlightConcurrentTicks(t *testing.T) {
	r := NewFlightRegistry()
	f := r.Register("q", "ops", 1, PhaseRunning)
	f.SetClustersTotal(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				f.TickClusters(1)
				f.TickRows(10)
				f.TickMatches(2)
				_ = f.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := f.Snapshot()
	if s.ClustersDone != 64 || s.RowsScanned != 640 || s.Matches != 128 {
		t.Errorf("counters lost ticks: %+v", s)
	}
}

// TestFlightEnrollSeedsProgress: a flight enrolled late carries the id its
// execution drew, its start, and the progress made before it enrolled;
// ids drawn and never enrolled stay unique and uncounted.
func TestFlightEnrollSeedsProgress(t *testing.T) {
	r := NewFlightRegistry()
	skipped, id := r.NextID(), r.NextID()
	if skipped == 0 || id == skipped {
		t.Fatalf("NextID drew %d then %d", skipped, id)
	}
	start := time.Now().Add(-time.Second)
	f := r.Enroll(id, "q", "ops", start, PhaseRunning, FlightProgress{ClustersTotal: 10, ClustersDone: 4, RowsScanned: 300, Matches: 2})
	f.TickClusters(1)
	s := f.Snapshot()
	if s.ID != id || !s.StartTime.Equal(start) || s.ElapsedNs < int64(time.Second) || s.Phase != "running" {
		t.Errorf("enrolled flight: %+v", s)
	}
	if s.ClustersTotal != 10 || s.ClustersDone != 5 || s.RowsScanned != 300 || s.Matches != 2 {
		t.Errorf("progress not seeded: %+v", s)
	}
	if r.Get(id) != f || r.Enrolled() != 1 {
		t.Errorf("registry holds %v, %d enrolled; want the flight, 1", r.Get(id), r.Enrolled())
	}
	if g := r.Register("q2", "ops", 0, PhaseQueued); g.ID() <= id || r.Enrolled() != 2 {
		t.Errorf("Register after Enroll: id %d, %d enrolled", g.ID(), r.Enrolled())
	}
	var nilReg *FlightRegistry
	if nilReg.NextID() != 0 || nilReg.Enroll(1, "q", "", start, PhaseRunning, FlightProgress{}) != nil || nilReg.Enrolled() != 0 {
		t.Error("nil registry not inert")
	}
}
