package storage

import "testing"

func projSchema() *Schema {
	return MustSchema(
		Column{Name: "price", Type: TypeFloat},
		Column{Name: "vol", Type: TypeInt},
		Column{Name: "name", Type: TypeString},
		Column{Name: "day", Type: TypeDate},
	)
}

func TestProjectionDecode(t *testing.T) {
	s := projSchema()
	p := NewProjection(s.Len(), []int{0, 1, 3}, []int{2})
	rows := []Row{
		{NewFloat(1.5), NewInt(7), NewString("a"), NewDateDays(100)},
		{Null, NewInt(-2), Null, NewDateDays(101)},
		{NewFloat(3), Null, NewString("b"), Null},
	}
	p.SetRows(rows)
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	// Numeric columns widen once: ints and dates land as float64.
	wantNum := map[int][]float64{
		0: {1.5, 0, 3},
		1: {7, -2, 0},
		3: {100, 101, 0},
	}
	for c, want := range wantNum {
		for i, w := range want {
			if got := p.Num[c][i]; got != w {
				t.Errorf("Num[%d][%d] = %v, want %v", c, i, got, w)
			}
		}
	}
	if p.Str[2][0] != "a" || p.Str[2][1] != "" || p.Str[2][2] != "b" {
		t.Errorf("Str[2] = %v", p.Str[2])
	}
	wantNull := map[int][]bool{
		0: {false, true, false},
		1: {false, false, true},
		2: {false, true, false},
		3: {false, false, true},
	}
	for c, want := range wantNull {
		for i, w := range want {
			if got := p.Null[c][i]; got != w {
				t.Errorf("Null[%d][%d] = %v, want %v", c, i, got, w)
			}
		}
	}
	// Unreferenced columns stay unmaterialized.
	if p.Str[0] != nil || p.Num[2] != nil {
		t.Error("unreferenced columns were materialized")
	}
}

// TestProjectionSetRowsReuse: SetRows resets in place, and capacity is
// retained across clusters.
func TestProjectionSetRowsReuse(t *testing.T) {
	s := projSchema()
	p := NewProjection(s.Len(), []int{0}, nil)
	rows := []Row{
		{NewFloat(1), NewInt(0), NewString(""), NewDateDays(0)},
		{NewFloat(2), NewInt(0), NewString(""), NewDateDays(0)},
		{NewFloat(3), NewInt(0), NewString(""), NewDateDays(0)},
		{NewFloat(4), NewInt(0), NewString(""), NewDateDays(0)},
	}
	p.SetRows(rows)
	before := cap(p.Num[0])
	p.SetRows(rows[2:])
	if p.Len() != 2 || p.Num[0][0] != 3 || p.Num[0][1] != 4 {
		t.Fatalf("after SetRows: len=%d Num[0]=%v", p.Len(), p.Num[0])
	}
	p.SetRows(rows[:3])
	if p.Len() != 3 || p.Num[0][0] != 1 {
		t.Fatalf("after SetRows: len=%d Num[0]=%v", p.Len(), p.Num[0])
	}
	if cap(p.Num[0]) != before {
		t.Errorf("SetRows reallocated: cap %d -> %d", before, cap(p.Num[0]))
	}
}

// TestProjectionReserve: Reserve keeps what is projected, gives every
// column the capacity asked for from one slab per element type (so a
// decode of up to that many rows allocates nothing), and never shrinks a
// column below what it holds.
func TestProjectionReserve(t *testing.T) {
	s := projSchema()
	p := NewProjection(s.Len(), []int{0, 1}, []int{2})
	row := func(i int) Row {
		return Row{NewFloat(float64(i)), NewInt(int64(10 * i)), NewString("x"), NewDateDays(0)}
	}
	p.SetRows([]Row{row(1), {Null, NewInt(20), Null, NewDateDays(0)}})
	p.Reserve(8)
	if p.Len() != 2 || p.Num[0][0] != 1 || p.Num[1][1] != 20 || !p.Null[0][1] || !p.Null[2][1] || p.Str[2][0] != "x" {
		t.Fatalf("Reserve lost content: num0=%v num1=%v null0=%v str2=%v", p.Num[0], p.Num[1], p.Null[0], p.Str[2])
	}
	for _, c := range []int{0, 1} {
		if cap(p.Num[c]) != 8 || cap(p.Null[c]) != 8 {
			t.Fatalf("column %d: cap num %d null %d, want 8", c, cap(p.Num[c]), cap(p.Null[c]))
		}
	}
	if cap(p.Str[2]) != 8 || cap(p.Null[2]) != 8 {
		t.Fatalf("column 2: cap str %d null %d, want 8", cap(p.Str[2]), cap(p.Null[2]))
	}
	var rows []Row
	for i := 3; i <= 10; i++ {
		rows = append(rows, row(i))
	}
	if allocs := testing.AllocsPerRun(1, func() { p.SetRows(rows) }); allocs != 0 {
		t.Fatalf("a decode within the reserved capacity allocated %.0f times", allocs)
	}
	for i := 0; i < 6; i++ {
		rows = append(rows, row(100+i)) // past the reservation
	}
	p.SetRows(rows)
	if p.Len() != 14 || p.Num[0][13] != 105 || p.Num[1][13] != 1050 || p.Num[0][0] != 3 {
		t.Fatalf("after outgrowing the reservation: len=%d num0=%v num1=%v", p.Len(), p.Num[0], p.Num[1])
	}
	p.Reserve(4) // never shrinks below what is held
	if p.Len() != 14 || cap(p.Num[0]) < 14 || p.Num[1][13] != 1050 {
		t.Fatalf("Reserve below Len: len=%d cap=%d", p.Len(), cap(p.Num[0]))
	}
}

// TestProjectionGrowAndCovers: Grow re-carves only a projection that
// lacks the room, and Covers recognises a projection prepared for the same
// columns — together what lets one decode buffer serve run after run.
func TestProjectionGrowAndCovers(t *testing.T) {
	s := projSchema()
	p := NewProjection(s.Len(), []int{0, 1}, []int{2})
	p.Grow(64)
	if cap(p.Num[0]) != 64 || cap(p.Str[2]) != 64 || cap(p.Null[1]) != 64 {
		t.Fatalf("Grow(64) left caps %d/%d/%d", cap(p.Num[0]), cap(p.Str[2]), cap(p.Null[1]))
	}
	if allocs := testing.AllocsPerRun(10, func() { p.Grow(10); p.Grow(64) }); allocs != 0 {
		t.Fatalf("Grow within capacity allocated %.0f times", allocs)
	}
	for _, c := range []struct {
		width    int
		num, str []int
		want     bool
	}{
		{s.Len(), []int{0, 1}, []int{2}, true},
		{s.Len(), []int{0}, []int{2}, false},
		{s.Len(), []int{0, 1}, nil, false},
		{s.Len() + 1, []int{0, 1}, []int{2}, false},
	} {
		if got := p.Covers(c.width, c.num, c.str); got != c.want {
			t.Errorf("Covers(%d, %v, %v) = %v, want %v", c.width, c.num, c.str, got, c.want)
		}
	}
}
