package testutil

// KeyStatements are the paper's queries the EXPLAIN goldens snapshot —
// Examples 1, 4, 8 and 10 — and two more shapes of WHERE, one with a
// cross condition and a disjunction and one that folds to false. They
// read tables quote and djia of columns name, date, price and volume.
var KeyStatements = []string{
	`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
	 WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price`,
	`SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z, T, U)
	 WHERE X.name = 'IBM'
	   AND Y.price < X.price AND Z.price < Y.price
	   AND 40 < Z.price AND Z.price < 50
	   AND T.price > Z.price AND T.price < 52
	   AND U.price > T.price`,
	`SELECT X.name, FIRST(X).date, LAST(Z).date
	 FROM quote CLUSTER BY name SEQUENCE BY date AS (*X, *Y, *Z)
	 WHERE X.price > X.previous.price
	   AND Y.price < Y.previous.price
	   AND Z.price > Z.previous.price`,
	`SELECT X.next.date, X.next.price, S.previous.date, S.previous.price
	 FROM djia SEQUENCE BY date AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
	 WHERE X.price >= 0.98 * X.previous.price
	   AND Y.price < 0.98 * Y.previous.price
	   AND 0.98 * Z.previous.price < Z.price
	   AND Z.price < 1.02 * Z.previous.price
	   AND T.price > 1.02 * T.previous.price
	   AND 0.98 * U.previous.price < U.price
	   AND U.price < 1.02 * U.previous.price
	   AND V.price < 0.98 * V.previous.price
	   AND 0.98 * W.previous.price < W.price
	   AND W.price < 1.02 * W.previous.price
	   AND R.price > 1.02 * R.previous.price
	   AND S.price <= 1.02 * S.previous.price`,
	// A cross condition, and a disjunction.
	`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
	 WHERE Y.price < Y.previous.price AND Z.price > 1.01 * X.price
	   AND (X.volume > 10 OR X.price < 3)`,
	// A constant conjunct that folds to false.
	`SELECT X.name FROM quote AS (X, Y) WHERE Y.price > X.price AND 1 > 2`,
}
