// Package workload generates the synthetic datasets used by the
// reproduction's experiments and examples.
//
// The paper's §7 experiments run on 25 years of daily DJIA closes
// (~6300 trading days), which we do not have; DJIA25Years substitutes a
// seeded geometric random walk calibrated to daily index statistics
// (volatility ≈ 1.1%/day, slight upward drift). The OPS speedup depends
// on the statistics of pattern-prefix failures in the series, which the
// calibrated walk reproduces; absolute match counts differ from the
// paper's and are reported as measured (see DESIGN.md).
package workload

import (
	"math"
	"math/rand"
	"strings"

	"sqlts/internal/storage"
)

// WalkConfig parameterizes a geometric random walk.
type WalkConfig struct {
	Seed  int64
	N     int     // number of points
	Start float64 // initial price
	Drift float64 // mean daily log return
	Vol   float64 // daily log-return standard deviation
}

// GeometricWalk generates a price series p[i+1] = p[i]·exp(drift+vol·ε).
func GeometricWalk(cfg WalkConfig) []float64 {
	r := rand.New(rand.NewSource(cfg.Seed))
	out := make([]float64, cfg.N)
	p := cfg.Start
	for i := range out {
		out[i] = p
		p *= math.Exp(cfg.Drift + cfg.Vol*r.NormFloat64())
	}
	return out
}

// TradingDaysPerYear is the conventional count of trading days.
const TradingDaysPerYear = 252

// DJIA25Years generates the reproduction's stand-in for the paper's
// 25-year DJIA series: 6300 daily closes with index-like statistics.
func DJIA25Years(seed int64) []float64 {
	return GeometricWalk(WalkConfig{
		Seed:  seed,
		N:     25 * TradingDaysPerYear,
		Start: 1000,
		Drift: 0.0003, // ≈ +7.8%/year
		Vol:   0.011,  // ≈ 1.1%/day
	})
}

// SeriesTable builds a (date, price) table from a price series, with
// dates as consecutive days starting at startDay (days since epoch).
func SeriesTable(name string, startDay int64, prices []float64) *storage.Table {
	schema := storage.MustSchema(
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
	t := storage.NewTable(name, schema)
	for i, p := range prices {
		t.MustInsert(storage.NewDateDays(startDay+int64(i)), storage.NewFloat(p))
	}
	return t
}

// QuoteTable builds the paper's quote(name, date, price) table from one
// or more named series.
func QuoteTable(tableName string, startDay int64, series map[string][]float64) *storage.Table {
	schema := storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
	t := storage.NewTable(tableName, schema)
	// Deterministic order: sort names.
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		for i, p := range series[n] {
			t.MustInsert(storage.NewString(n), storage.NewDateDays(startDay+int64(i)), storage.NewFloat(p))
		}
	}
	return t
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// PlantDoubleBottom overwrites prices[at:at+16] with a W-shaped relaxed
// double bottom scaled to the local price level, guaranteeing at least
// one occurrence of the paper's Example 10 pattern (each leg moves more
// than 2%, the flats move less than 2%). It returns the modified slice
// for chaining; at must leave room for the 16-point shape plus one
// leading anchor.
func PlantDoubleBottom(prices []float64, at int) []float64 {
	shape := []float64{
		1.000, 0.995, // anchor: move within 2% (X)
		0.95, 0.90, // fall > 2% per step (*Y)
		0.905, 0.900, // flat (*Z)
		0.95, 1.00, // rise > 2% (*T)
		1.005, 1.000, // flat (*U)
		0.95, 0.90, // fall (*V)
		0.905, 0.900, // flat (*W)
		0.95, 1.00, // rise (*R)
	}
	if at < 1 || at+len(shape) >= len(prices) {
		return prices
	}
	base := prices[at-1]
	for i, f := range shape {
		prices[at+i] = base * f
	}
	// The tuple after the shape must not rise more than 2% (S).
	prices[at+len(shape)] = base * 1.01
	return prices
}

// ClusterWalks builds a quote(name, date, price) table with `clusters`
// independent symbols of `rows` geometric-walk points each — the
// many-small-clusters shape the cluster driver serves. Every
// plantEvery-th symbol (starting with the first; 0 disables planting)
// is lengthened to 24 points and seeded with one guaranteed relaxed
// double bottom, so match counts are deterministic and nonzero at any
// scale. Symbols are inserted in name order, which makes name order,
// first-appearance order, and cluster order coincide.
func ClusterWalks(tableName string, seed int64, clusters, rows, plantEvery int) *storage.Table {
	const plantedRows = 24 // anchor + 16-point shape + follower + walk tail
	schema := storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
	t := storage.NewTable(tableName, schema)
	width := len(itoa(clusters - 1))
	staged := make([]storage.Row, 0, clusters*rows)
	for c := 0; c < clusters; c++ {
		n := rows
		planted := plantEvery > 0 && c%plantEvery == 0
		if planted && n < plantedRows {
			n = plantedRows
		}
		prices := GeometricWalk(WalkConfig{
			Seed: seed + int64(c), N: n, Start: 100, Drift: 0.0003, Vol: 0.011,
		})
		if planted {
			PlantDoubleBottom(prices, 4)
		}
		name := "s" + pad(itoa(c), width)
		for i, p := range prices {
			staged = append(staged, storage.Row{
				storage.NewString(name), storage.NewDateDays(int64(i)), storage.NewFloat(p),
			})
		}
	}
	if err := t.InsertBatch(staged); err != nil {
		panic(err) // rows are generated with the schema's own types
	}
	return t
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func pad(s string, width int) string {
	for len(s) < width {
		s = "0" + s
	}
	return s
}

// RandomText generates a deterministic random string over an alphabet,
// for the KMP experiments.
func RandomText(seed int64, n int, alphabet string) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

// StaircaseSeries generates a price series alternating runs of rises and
// falls with run lengths in [minRun, maxRun] and step ratios near ±step;
// it is rich in the rise/fall patterns of Examples 8 and 9.
func StaircaseSeries(seed int64, n int, start, step float64, minRun, maxRun int) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	p := start
	up := true
	run := 0
	runLen := minRun + r.Intn(maxRun-minRun+1)
	for i := range out {
		out[i] = p
		f := 1 + step*(0.5+r.Float64())
		if !up {
			f = 1 / f
		}
		p *= f
		run++
		if run >= runLen {
			up = !up
			run = 0
			runLen = minRun + r.Intn(maxRun-minRun+1)
		}
	}
	return out
}
