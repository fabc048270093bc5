package sqlts

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsHygiene enforces the registry's naming and registration
// discipline: every family matches the sqlts_ naming scheme, no family
// appears twice, no family of the deleted sharded partition cache
// (sqlts_shard*) is back, and every instrument field of dbMetrics owns its
// own family — two fields accidentally registered under one name would
// silently share a counter.
func TestMetricsHygiene(t *testing.T) {
	db := New()
	families := db.Metrics().Families()
	if len(families) == 0 {
		t.Fatal("registry is empty")
	}

	nameRE := regexp.MustCompile(`^sqlts_[a-z_]+(_total|_seconds)?$`)
	seen := map[string]bool{}
	for _, name := range families {
		if !nameRE.MatchString(name) {
			t.Errorf("family %q does not match sqlts_[a-z_]+(_total|_seconds)?", name)
		}
		if seen[name] {
			t.Errorf("family %q listed twice", name)
		}
		if strings.HasPrefix(name, "sqlts_shard") {
			t.Errorf("family %q belongs to the deleted sharded partition cache", name)
		}
		seen[name] = true
	}

	// Count dbMetrics' instrument fields by reflection: each must have
	// registered its own family, so the counts must agree exactly.
	v := reflect.ValueOf(*db.metrics)
	instruments := 0
	for i := 0; i < v.NumField(); i++ {
		switch v.Field(i).Type().String() {
		case "*obs.Counter", "*obs.Gauge", "*obs.Histogram", "*obs.CounterVec":
			instruments++
		}
	}
	// A labelled family is one family however many values its label takes,
	// and every value is exposed from the start.
	var text strings.Builder
	if err := db.WriteMetrics(&text); err != nil {
		t.Fatal(err)
	}
	for _, outcome := range []string{"borrowed", "denied", "yielded"} {
		if line := fmt.Sprintf("sqlts_driver_helpers_total{outcome=%q} 0\n", outcome); !strings.Contains(text.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
	if instruments != len(families) {
		t.Errorf("dbMetrics holds %d instruments but the registry has %d families — two fields share a name",
			instruments, len(families))
	}
}
