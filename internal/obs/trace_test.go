package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("parse")
	time.Sleep(time.Millisecond)
	sp.End()
	sp.End() // idempotent

	tr.Start("analyze").Annotate("elements", 9).Annotate("predicates", 12).End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "parse" || spans[0].Duration < time.Millisecond {
		t.Errorf("parse span = %+v", spans[0])
	}
	if len(spans[1].Annots) != 2 || spans[1].Annots[0].Key != "elements" {
		t.Errorf("annotations = %+v", spans[1].Annots)
	}

	out := tr.String()
	for _, want := range []string{"parse", "analyze", "elements=9", "predicates=12"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x") // must not panic
	sp.Annotate("k", 1)
	sp.End()
	if tr.Spans() != nil {
		t.Error("nil trace has spans")
	}
}

func TestUnfinishedSpanNotListed(t *testing.T) {
	tr := NewTrace()
	tr.Start("open") // never ended
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("unfinished span listed, n=%d", n)
	}
}
