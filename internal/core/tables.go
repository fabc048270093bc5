package core

import (
	"fmt"
	"strings"

	"sqlts/internal/logic"
	"sqlts/internal/pattern"
)

// Tables is the complete compile-time output of the OPS optimizer for one
// pattern: the precondition matrices plus the shift and next arrays the
// runtime consults on a mismatch. Arrays are 1-indexed (entry 0 unused),
// matching the paper.
type Tables struct {
	M       int // pattern length
	Star    []bool
	HasStar bool
	Theta   *logic.TriMatrix
	Phi     *logic.TriMatrix
	S       *logic.TriMatrix // plain patterns only; nil for star patterns
	Shift   []int
	// Next[j] is where the search resumes in the pattern after failing at
	// element j: with sh = Shift[j], elements 1 .. Next[j]-1 of the attempt
	// shifted by sh are known to hold, and 0 starts afresh one row past the
	// failed one. Star-free patterns carry §4.2's values, where Next[j] can
	// be j-sh+1: the failed tuple itself is then known to satisfy element
	// j-sh. One rule reads that case: resume at element j-sh and consume
	// the failed tuple as that element unexamined, the step a SkipOK entry
	// takes; the engine's step builder (newSteps) is the one place that
	// applies it. §5's walk never yields it (Next[j] ≤ j-sh on a star
	// pattern), and on a star-free one count[k] = k, so §5's rollback
	// arithmetic then lands exactly where §4.2.1's does.
	Next []int
	// SkipOK marks failure positions where the failed tuple is known to
	// satisfy element Next[j] (a plain element) and may be consumed
	// without re-testing — the star analogue of the plain pattern's
	// next = j-shift+1 case, an extension beyond the paper (see
	// starShiftNext). Nil for plain patterns, which encode the skip in
	// Next directly.
	SkipOK []bool
}

// Compute runs the full compile-time analysis for a pattern, dispatching
// between the §4.2 matrix formulas (star-free) and the §5.1 implication
// graphs (patterns with at least one star element).
func Compute(p *pattern.Pattern) *Tables {
	return TablesFrom(p, ComputeMatrices(p))
}

// TablesFrom builds the shift/next tables from already-computed θ/φ
// matrices. It is the second half of Compute, split out so callers can
// time (and attribute) the implication work and the table construction
// as separate compile phases.
func TablesFrom(p *pattern.Pattern, m *Matrices) *Tables {
	n := p.Len()
	t := &Tables{
		M:     n,
		Star:  make([]bool, n+1),
		Theta: m.Theta,
		Phi:   m.Phi,
	}
	for i := range p.Elems {
		t.Star[i+1] = p.Elems[i].Star
		t.HasStar = t.HasStar || p.Elems[i].Star
	}
	if t.HasStar {
		t.Shift = make([]int, n+1)
		t.Next = make([]int, n+1)
		t.SkipOK = make([]bool, n+1)
		for j := 1; j <= n; j++ {
			t.Shift[j], t.Next[j], t.SkipOK[j] = starShiftNext(j, m, t.Star)
		}
	} else {
		t.S = ComputeS(m)
		t.Shift, t.Next = plainShiftNext(m, t.S)
	}
	return t
}

// ComputeForStream is Compute: streams read the tables batch does. It
// remains only for the benchmark harness, which calls it.
func ComputeForStream(p *pattern.Pattern) *Tables {
	return Compute(p)
}

// ComputeSyntactic computes the optimizer tables using only syntactic
// identity of predicates, the reasoning power classic KMP has (two
// pattern elements relate only when their conditions are literally the
// same conjunction). It exists as an ablation: comparing it against
// Compute isolates the contribution of the GSW implication engine.
func ComputeSyntactic(p *pattern.Pattern) *Tables {
	n := p.Len()
	theta := logic.NewTriMatrix(n, logic.Unknown)
	phi := logic.NewTriMatrix(n, logic.Unknown)
	keys := make([]string, n)
	for i := range p.Elems {
		keys[i] = p.Elems[i].Sys.String()
	}
	for j := 1; j <= n; j++ {
		for k := 1; k <= j; k++ {
			same := keys[j-1] == keys[k-1] &&
				!p.Elems[j-1].HasCross() && !p.Elems[k-1].HasCross()
			if same {
				// p_j ≡ p_k: success implies success, failure implies
				// failure.
				theta.Set(j, k, logic.True)
				phi.Set(j, k, logic.False)
			}
		}
	}
	return TablesFrom(p, &Matrices{Theta: theta, Phi: phi})
}

// AvgShift returns the average shift value, the paper's §8 heuristic
// signal for choosing between forward and reverse search (a larger
// average shift indicates more effective optimization).
func (t *Tables) AvgShift() float64 {
	sum := 0
	for j := 1; j <= t.M; j++ {
		sum += t.Shift[j]
	}
	return float64(sum) / float64(t.M)
}

// AvgNext returns the average next value, the secondary §8 signal.
func (t *Tables) AvgNext() float64 {
	sum := 0
	for j := 1; j <= t.M; j++ {
		sum += t.Next[j]
	}
	return float64(sum) / float64(t.M)
}

// Explain renders the matrices and arrays in the paper's notation, for
// the CLI's -explain flag and for EXPERIMENTS.md.
func (t *Tables) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern length m = %d, star elements:", t.M)
	any := false
	for j := 1; j <= t.M; j++ {
		if t.Star[j] {
			fmt.Fprintf(&b, " %d", j)
			any = true
		}
	}
	if !any {
		b.WriteString(" none")
	}
	b.WriteString("\n\ntheta =\n")
	b.WriteString(t.Theta.String())
	b.WriteString("\n\nphi =\n")
	b.WriteString(t.Phi.String())
	if t.S != nil {
		b.WriteString("\n\nS =\n")
		// S is defined for j > k; print rows 2..m.
		for j := 2; j <= t.M; j++ {
			b.WriteByte('[')
			for k := 1; k < j; k++ {
				if k > 1 {
					b.WriteByte(' ')
				}
				b.WriteString(t.S.At(j, k).String())
			}
			b.WriteString("]\n")
		}
	}
	b.WriteString("\n j     :")
	for j := 1; j <= t.M; j++ {
		fmt.Fprintf(&b, " %3d", j)
	}
	b.WriteString("\n shift :")
	for j := 1; j <= t.M; j++ {
		fmt.Fprintf(&b, " %3d", t.Shift[j])
	}
	b.WriteString("\n next  :")
	for j := 1; j <= t.M; j++ {
		fmt.Fprintf(&b, " %3d", t.Next[j])
	}
	b.WriteString("\n")
	return b.String()
}
