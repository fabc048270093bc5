package main

// Frozen input generators. Every table, row order and SQL text the
// benchmark feeds the program under test is produced here from -seed.
// Nothing below calls internal/workload or ta: product PRs may edit
// those, and a benchmark whose inputs move with the product measures
// nothing. The shapes are copies of the ones the repo's own pins use
// (the 25-year geometric walk with twelve planted double bottoms, the
// many-small-clusters quote table, Figure 5), so seed 1 reproduces the
// paper's predicate-evaluation pins.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// genRow is one generated tuple, independent of the product's types.
// name is empty for the single-series (date, price) tables.
type genRow struct {
	name  string
	day   int64 // days since 1970-01-01
	price float64
}

// inputs is everything one workload hands the program under test.
type inputs struct {
	seed      int64
	table     string
	clustered bool     // quote(name, date, price) rather than (date, price)
	rows      []genRow // insertion order
	sql       string   // the workload's base statement
	// variant returns the k-th never-seen-before text of the base
	// statement (cold_plan); nil elsewhere.
	variant func(k int) string
	sha256  string
}

const walkDrift, walkVol = 0.0003, 0.011 // ≈ +7.8 %/year, ≈ 1.1 %/day

// geometricWalk is p[i+1] = p[i]·exp(drift + vol·ε) from a seeded source.
func geometricWalk(seed int64, n int, start float64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	p := start
	for i := range out {
		out[i] = p
		p *= math.Exp(walkDrift + walkVol*r.NormFloat64())
	}
	return out
}

// wShape is a relaxed double bottom scaled to the local price level:
// every leg moves more than 2 % per step, every flat less than 2 %.
var wShape = []float64{
	1.000, 0.995, // anchor (X)
	0.95, 0.90, // fall (*Y)
	0.905, 0.900, // flat (*Z)
	0.95, 1.00, // rise (*T)
	1.005, 1.000, // flat (*U)
	0.95, 0.90, // fall (*V)
	0.905, 0.900, // flat (*W)
	0.95, 1.00, // rise (*R)
}

// plantW overwrites prices[at:at+17] with wShape plus a follower that
// does not rise more than 2 % (S), guaranteeing one Example 10 match.
func plantW(prices []float64, at int) {
	if at < 1 || at+len(wShape) >= len(prices) {
		return
	}
	base := prices[at-1]
	for i, f := range wShape {
		prices[at+i] = base * f
	}
	prices[at+len(wShape)] = base * 1.01
}

// Paper Example 10, the relaxed double bottom (2 % threshold), over a
// single (date, price) series. alias names the first output column;
// cold_plan varies it to make statement texts that differ only there.
func doubleBottomSQL(table, alias string) string {
	return fmt.Sprintf(`
		SELECT X.next.date AS %s, X.next.price AS start_price,
		       S.previous.date AS end_date, S.previous.price AS end_price
		FROM %s
		  SEQUENCE BY date
		  AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
		WHERE X.price >= 0.98 * X.previous.price
		  AND `+doubleBottomLegs+`
		  AND S.price <= 1.02 * S.previous.price`, alias, table)
}

// The same pattern per symbol of a quote(name, date, price) table.
func doubleBottomOverSQL(table string) string {
	return fmt.Sprintf(`
		SELECT X.name AS name,
		       X.next.date AS start_date, X.next.price AS start_price,
		       S.previous.date AS end_date, S.previous.price AS end_price
		FROM %s
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
		WHERE X.price >= 0.98 * X.previous.price
		  AND `+doubleBottomLegs+`
		  AND S.price <= 1.02 * S.previous.price`, table)
}

const doubleBottomLegs = `Y.price < 0.98 * Y.previous.price
		  AND 0.98 * Z.previous.price < Z.price AND Z.price < 1.02 * Z.previous.price
		  AND T.price > 1.02 * T.previous.price
		  AND 0.98 * U.previous.price < U.price AND U.price < 1.02 * U.previous.price
		  AND V.price < 0.98 * V.previous.price
		  AND 0.98 * W.previous.price < W.price AND W.price < 1.02 * W.previous.price
		  AND R.price > 1.02 * R.previous.price`

// Paper Example 4: two drops then two rises with range bounds.
const example4SQL = `
		SELECT X.date AS start_date, T.price AS end_price
		FROM fig5
		  SEQUENCE BY date
		  AS (X, Y, Z, T)
		WHERE X.price < X.previous.price
		  AND Y.price < Y.previous.price AND Y.price > 40 AND Y.price < 50
		  AND Z.price > Z.previous.price AND Z.price < 52
		  AND T.price > T.previous.price`

// figure5 is the §4.2.1 sequence the paper plots search paths over.
var figure5 = []float64{55, 50, 45, 57, 54, 50, 47, 49, 45, 42, 55, 57, 59, 60, 57}

const djiaStartDay = 2557 // 1977-01-01

// genLong is the §7 stand-in: 25 years of daily closes (6,300 rows) with
// twelve planted double bottoms, one cluster. Like the paper's DJIA
// series it is one fixed dataset — the walk never changes — and the seed
// moves each planted double bottom by up to 400 days (seed 1 leaves them
// where the repo's own pins have them). A single 6,300-row walk holds
// only ≈ 18 natural matches, so a fresh walk per seed would move the
// per-op counts by ±10 % for reasons that have nothing to do with the
// program; the many-cluster workloads draw every walk from the seed and
// let their size do the averaging.
func genLong(seed int64) *inputs {
	prices := geometricWalk(1, 25*252, 1000)
	for i := 0; i < 12; i++ {
		shift := int(uint64(seed-1) * uint64(37+11*i) % 401)
		plantW(prices, 1+(i+1)*len(prices)/13+shift)
	}
	in := &inputs{seed: seed, table: "djia", sql: doubleBottomSQL("djia", "start_date")}
	for i, p := range prices {
		in.rows = append(in.rows, genRow{day: djiaStartDay + int64(i), price: p})
	}
	return in.seal()
}

// genCold is genLong plus an endless supply of statement texts with the
// same semantics: only the first output alias differs.
func genCold(seed int64) *inputs {
	in := genLong(seed)
	in.variant = func(k int) string {
		return doubleBottomSQL("djia", "start_date_"+strconv.Itoa(k))
	}
	return in.seal(in.variant(0), in.variant(1), in.variant(2), in.variant(3))
}

// genTiny is Figure 5 verbatim. The prices are the paper's, so the seed
// only moves the start date: the work (21 predicate evaluations) is the
// same for every seed by construction.
func genTiny(seed int64) *inputs {
	start := int64(10957) + seed%3650 // 2000-01-01, give or take ten years
	in := &inputs{seed: seed, table: "fig5", sql: example4SQL}
	for i, p := range figure5 {
		in.rows = append(in.rows, genRow{day: start + int64(i), price: p})
	}
	return in.seal()
}

const plantedRows = 24 // anchor + 16-point shape + follower + walk tail

// symbolWalks generates `symbols` independent walks of `rows` points;
// every plantEvery-th symbol is lengthened to plantedRows and given one
// planted double bottom, so match counts are nonzero at any seed.
func symbolWalks(seed int64, symbols, rows, plantEvery int) (names []string, series [][]float64) {
	width := len(strconv.Itoa(symbols - 1))
	for c := 0; c < symbols; c++ {
		n := rows
		planted := plantEvery > 0 && c%plantEvery == 0
		if planted && n < plantedRows {
			n = plantedRows
		}
		// One source per symbol, spread so that seeds n and n+1 share no walk.
		prices := geometricWalk(seed*1_000_003+int64(c), n, 100)
		if planted {
			plantW(prices, 4)
		}
		names = append(names, fmt.Sprintf("s%0*d", width, c))
		series = append(series, prices)
	}
	return names, series
}

// genMany is the many-small-clusters table, inserted symbol by symbol.
func genMany(seed int64, table string, symbols, rows int) *inputs {
	names, series := symbolWalks(seed, symbols, rows, 50)
	in := &inputs{seed: seed, table: table, clustered: true, sql: doubleBottomOverSQL(table)}
	for c, prices := range series {
		for i, p := range prices {
			in.rows = append(in.rows, genRow{name: names[c], day: int64(i), price: p})
		}
	}
	return in
}

// genIngest is a smaller many-clusters table; every instance set up
// over it deals itself the same sequence of 8-row INSERT statements,
// each appending the next date for 8 seeded symbols.
func genIngest(seed int64) *inputs {
	in := genMany(seed, "ticks", 5000, 10)
	var first []string
	for fp, k := newInsertDealer(in), 0; k < 16; k++ {
		text, _ := fp.next()
		first = append(first, text)
	}
	return in.seal(first...)
}

// genStream is 2,000 symbols × 100 rows in arrival order: date-major,
// round-robin across symbols — consecutive tuples never share a
// cluster, the worst case for per-cluster routing.
func genStream(seed int64) *inputs {
	const symbols, rows = 2000, 100
	names, series := symbolWalks(seed, symbols, rows, 50)
	in := &inputs{seed: seed, table: "feed", clustered: true, sql: doubleBottomOverSQL("feed")}
	for i := 0; i < rows; i++ {
		for c := range series {
			in.rows = append(in.rows, genRow{name: names[c], day: int64(i), price: series[c][i]})
		}
	}
	return in.seal()
}

// insertDealer deals deterministic 8-row INSERT statements; it is
// stateful, each statement continuing the symbols' walks and dates.
type insertDealer struct {
	table   string
	r       *rand.Rand
	names   []string
	nextDay []int64
	last    []float64
}

func newInsertDealer(in *inputs) *insertDealer {
	d := &insertDealer{table: in.table, r: rand.New(rand.NewSource(in.seed ^ 0x5eed))}
	for _, row := range in.rows {
		if len(d.names) == 0 || d.names[len(d.names)-1] != row.name {
			d.names = append(d.names, row.name)
			d.nextDay = append(d.nextDay, 0)
			d.last = append(d.last, 0)
		}
		d.nextDay[len(d.names)-1] = row.day + 1
		d.last[len(d.names)-1] = row.price
	}
	return d
}

const insertRows = 8

// next returns the next statement and the rows it inserts.
func (d *insertDealer) next() (string, []genRow) {
	var b strings.Builder
	rows := make([]genRow, 0, insertRows)
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", d.table)
	for i := 0; i < insertRows; i++ {
		c := d.r.Intn(len(d.names))
		d.last[c] *= math.Exp(walkDrift + walkVol*d.r.NormFloat64())
		row := genRow{name: d.names[c], day: d.nextDay[c], price: d.last[c]}
		d.nextDay[c]++
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%s', '%s', %s)", row.name, dayString(row.day),
			strconv.FormatFloat(row.price, 'f', -1, 64))
		rows = append(rows, row)
	}
	return b.String(), rows
}

func dayString(day int64) string {
	return time.Unix(day*86400, 0).UTC().Format("2006-01-02")
}

// seal fingerprints the inputs: rows in insertion order, the base
// statement, then the first few texts of any statement dealer.
func (in *inputs) seal(dealt ...string) *inputs {
	h := sha256.New()
	var buf []byte
	for _, r := range in.rows {
		buf = append(buf[:0], r.name...)
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, r.day, 10)
		buf = append(buf, '|')
		buf = strconv.AppendUint(buf, math.Float64bits(r.price), 16)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	h.Write([]byte(in.sql))
	for _, text := range dealt {
		h.Write([]byte(text))
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in
}
