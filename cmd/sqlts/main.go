// Command sqlts runs SQL-TS scripts: CREATE TABLE and INSERT statements
// build tables, CSV files can be loaded into declared tables, and SELECT
// statements execute sequence queries with the OPS optimizer.
//
// Usage:
//
//	sqlts -q script.sql [-load table=data.csv ...] [-positive table.col ...]
//	      [-exec ops|naive] [-overlap]
//	      [-explain] [-stats]
//	sqlts -c "SELECT ... FROM t SEQUENCE BY d AS (X, *Y) WHERE ..." ...
//
// EXPLAIN [ANALYZE] SELECT ... statements print the compiled plan;
// ANALYZE executes the query and annotates the plan with per-phase
// timings and runtime counters.
//
// Example:
//
//	tsgen -kind djia -n 6300 > djia.csv
//	sqlts -c 'CREATE TABLE djia (date DATE, price REAL)' \
//	      -c "$(cat doublebottom.sql)" \
//	      -load djia=djia.csv -positive djia.price -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sqlts"
	"sqlts/internal/query"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sqlts:", err)
		os.Exit(1)
	}
}

func run() error {
	var scripts, loads, positives repeated
	qfile := flag.String("q", "", "script file to execute")
	flag.Var(&scripts, "c", "statement(s) to execute (repeatable)")
	flag.Var(&loads, "load", "table=file.csv: load CSV into a declared table (repeatable)")
	flag.Var(&positives, "positive", "table.column: declare a positive-domain column (repeatable)")
	execKind := flag.String("exec", "ops", "executor: ops (the optimized search) or naive (the baseline)")
	overlap := flag.Bool("overlap", false, "report overlapping matches (skip-to-next-row)")
	explain := flag.Bool("explain", false, "print the compiled plan before running each SELECT")
	stats := flag.Bool("stats", false, "print predicate-evaluation statistics after each SELECT")
	interactive := flag.Bool("i", false, "start an interactive shell after executing -q/-c statements")
	flag.Parse()

	var src strings.Builder
	if *qfile != "" {
		data, err := os.ReadFile(*qfile)
		if err != nil {
			return err
		}
		src.Write(data)
		src.WriteString(";\n")
	}
	for _, s := range scripts {
		src.WriteString(s)
		src.WriteString(";\n")
	}
	if src.Len() == 0 && !*interactive {
		return fmt.Errorf("nothing to do: pass -q, -c or -i (see -h)")
	}

	kind, err := parseExec(*execKind)
	if err != nil {
		return err
	}

	db := sqlts.New()
	stmts, err := query.ParseScript(src.String())
	if err != nil {
		return err
	}

	// Phase 1: DDL first so -load targets exist regardless of order.
	for _, st := range stmts {
		if _, ok := st.(*query.CreateTableStmt); ok {
			if err := db.Exec(stmtText(st)); err != nil {
				return err
			}
		}
	}
	for _, l := range loads {
		parts := strings.SplitN(l, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -load %q, want table=file.csv", l)
		}
		tbl := db.Table(parts[0])
		if tbl == nil {
			return fmt.Errorf("-load %s: declare the table with CREATE TABLE first", parts[0])
		}
		f, err := os.Open(parts[1])
		if err != nil {
			return err
		}
		err = db.LoadCSV(parts[0], tbl.Schema, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	for _, p := range positives {
		parts := strings.SplitN(p, ".", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -positive %q, want table.column", p)
		}
		if err := db.DeclarePositive(parts[0], parts[1]); err != nil {
			return err
		}
	}

	// Phase 2: the rest, in order.
	for _, st := range stmts {
		switch s := st.(type) {
		case *query.CreateTableStmt:
			// done in phase 1
		case *query.InsertStmt:
			if err := db.Exec(stmtText(s)); err != nil {
				return err
			}
		case *query.SelectStmt, *query.ExplainStmt:
			q, err := db.Prepare(stmtText(s))
			if err != nil {
				return err
			}
			if *explain {
				fmt.Println(q.Explain())
			}
			res, err := q.RunWith(sqlts.RunOptions{Executor: kind, Overlap: *overlap})
			if err != nil {
				return err
			}
			if err := res.Format(os.Stdout); err != nil {
				return err
			}
			fmt.Printf("(%d rows)\n", len(res.Rows))
			if *stats {
				fmt.Printf("executor=%s pred-evals=%d rollbacks=%d matches=%d\n",
					kind, res.Stats.PredEvals, res.Stats.Rollbacks, res.Stats.Matches)
			}
			fmt.Println()
		}
	}
	if *interactive {
		return repl(db, os.Stdin, os.Stdout, kind, *overlap)
	}
	return nil
}

func parseExec(s string) (sqlts.ExecutorKind, error) {
	switch s {
	case "ops":
		return sqlts.OPSExec, nil
	case "naive":
		return sqlts.NaiveExec, nil
	default:
		return 0, fmt.Errorf("unknown executor %q (want ops or naive)", s)
	}
}

// stmtText reconstructs statement text for the DB API. Statements do not
// retain their source, so re-render from the AST.
func stmtText(st query.Stmt) string { return query.Render(st) }
