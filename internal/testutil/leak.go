// Package testutil holds shared test helpers. It is imported only from
// _test.go files; nothing here runs in production binaries.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// LeakCheck snapshots the goroutine count and returns a function that
// fails the test if the count has not returned to the baseline shortly
// after. Use as
//
//	defer testutil.LeakCheck(t)()
//
// at the top of any test that starts goroutines (parallel execution,
// streams, admission waits). The check polls for up to two seconds
// before declaring a leak, since legitimately finished goroutines can
// take a few scheduler ticks to be descheduled; on failure it dumps all
// goroutine stacks so the leaked one is identifiable.
func LeakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d goroutines, baseline was %d\n%s", n, base, buf)
	}
}
