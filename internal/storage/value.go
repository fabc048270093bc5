// Package storage implements the in-memory relational substrate used by the
// SQL-TS engine: typed values, schemas, rows, tables, CSV import/export,
// and the CLUSTER BY / SEQUENCE BY physical ordering the paper's queries
// assume (sorted relations viewed as sequences, as in SRQL).
package storage

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies the data type of a column or value.
type Type uint8

// Column types supported by the engine. They cover the paper's examples
// (Varchar, Date, Integer) plus Float and Bool for general workloads.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeDate
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "REAL"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Numeric reports whether the type participates in arithmetic.
func (t Type) Numeric() bool { return t == TypeInt || t == TypeFloat }

// Ordered reports whether values of the type can be compared with </>.
func (t Type) Ordered() bool { return t != TypeNull && t != TypeBool }

// Value is a dynamically typed SQL value. The zero Value is NULL.
//
// Dates are stored as days since the Unix epoch in the integer field, which
// keeps ordering and arithmetic trivial and allocation-free.
type Value struct {
	typ Type
	i   int64   // Int, Date (days since epoch), Bool (0/1)
	f   float64 // Float
	s   string  // String
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{typ: TypeInt, i: v} }

// NewFloat returns a REAL value.
func NewFloat(v float64) Value { return Value{typ: TypeFloat, f: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{typ: TypeString, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: TypeBool, i: i}
}

// NewDate returns a DATE value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{typ: TypeDate, i: t.Unix() / 86400}
}

// NewDateDays returns a DATE value from a days-since-epoch count.
func NewDateDays(days int64) Value { return Value{typ: TypeDate, i: days} }

// Type returns the value's type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Int returns the INTEGER payload; it panics on other types.
func (v Value) Int() int64 {
	if v.typ != TypeInt {
		panic("storage: Int() on " + v.typ.String())
	}
	return v.i
}

// Float returns the numeric payload widened to float64 (INTEGER or REAL).
func (v Value) Float() float64 {
	switch v.typ {
	case TypeFloat:
		return v.f
	case TypeInt:
		return float64(v.i)
	default:
		panic("storage: Float() on " + v.typ.String())
	}
}

// Str returns the VARCHAR payload; it panics on other types.
func (v Value) Str() string {
	if v.typ != TypeString {
		panic("storage: Str() on " + v.typ.String())
	}
	return v.s
}

// Bool returns the BOOLEAN payload; it panics on other types.
func (v Value) Bool() bool {
	if v.typ != TypeBool {
		panic("storage: Bool() on " + v.typ.String())
	}
	return v.i != 0
}

// DateDays returns the DATE payload as days since the Unix epoch.
func (v Value) DateDays() int64 {
	if v.typ != TypeDate {
		panic("storage: DateDays() on " + v.typ.String())
	}
	return v.i
}

// Time returns the DATE payload as a time.Time at UTC midnight.
func (v Value) Time() time.Time {
	return time.Unix(v.DateDays()*86400, 0).UTC()
}

// ErrIncomparable is returned by Compare for values that have no ordering.
var ErrIncomparable = errors.New("storage: incomparable values")

// Compare orders two values: -1, 0 or +1. INTEGER and REAL compare
// numerically with each other; NULL compares only to NULL (as equal), which
// callers that need SQL NULL semantics must special-case.
func (v Value) Compare(w Value) (int, error) {
	switch {
	case v.typ == TypeNull && w.typ == TypeNull:
		return 0, nil
	case v.typ.Numeric() && w.typ.Numeric():
		a, b := v.Float(), w.Float()
		// Compare exactly when both are ints to avoid float rounding.
		if v.typ == TypeInt && w.typ == TypeInt {
			switch {
			case v.i < w.i:
				return -1, nil
			case v.i > w.i:
				return 1, nil
			default:
				return 0, nil
			}
		}
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	case v.typ == TypeString && w.typ == TypeString:
		return strings.Compare(v.s, w.s), nil
	case v.typ == TypeDate && w.typ == TypeDate:
		switch {
		case v.i < w.i:
			return -1, nil
		case v.i > w.i:
			return 1, nil
		default:
			return 0, nil
		}
	case v.typ == TypeBool && w.typ == TypeBool:
		switch {
		case v.i == w.i:
			return 0, nil
		case v.i < w.i:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("%w: %s vs %s", ErrIncomparable, v.typ, w.typ)
	}
}

// Equal reports whether two values are equal under Compare.
func (v Value) Equal(w Value) bool {
	c, err := v.Compare(w)
	return err == nil && c == 0
}

// SameKey reports whether v and w are one value to AppendKey and
// AppendRowKey: the same type and the same payload. It may report false
// for values whose keys agree (two NaNs of different bits), never true
// for values whose keys differ (-0 and +0 are two keys).
func (v Value) SameKey(w Value) bool {
	if v.typ != w.typ {
		return false
	}
	switch v.typ {
	case TypeFloat:
		return math.Float64bits(v.f) == math.Float64bits(w.f)
	case TypeString:
		return v.s == w.s
	}
	return v.i == w.i
}

// String formats the value for display and CSV export.
func (v Value) String() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeDate:
		return v.Time().Format("2006-01-02")
	case TypeBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.typ))
	}
}

// AppendKey appends a compact canonical encoding of the value to b
// without allocating: numeric payloads via strconv append variants,
// dates as raw day counts. Encodings are unique per (type, value) pair;
// callers that mix types in one key must add their own type tags.
func (v Value) AppendKey(b []byte) []byte {
	switch v.typ {
	case TypeInt, TypeDate, TypeBool:
		return strconv.AppendInt(b, v.i, 10)
	case TypeFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case TypeString:
		return append(b, v.s...)
	default:
		return b
	}
}

// ParseValue parses s as the given type. Dates accept YYYY-MM-DD and
// M/D/YY[YY] (the paper's figures use the latter).
func ParseValue(s string, t Type) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "null") {
		return Null, nil
	}
	switch t {
	case TypeInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("storage: parse INTEGER %q: %w", s, err)
		}
		return NewInt(i), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("storage: parse REAL %q: %w", s, err)
		}
		return NewFloat(f), nil
	case TypeString:
		return NewString(s), nil
	case TypeBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null, fmt.Errorf("storage: parse BOOLEAN %q: %w", s, err)
		}
		return NewBool(b), nil
	case TypeDate:
		for _, layout := range []string{"2006-01-02", "1/2/2006", "1/2/06"} {
			if tm, err := time.Parse(layout, s); err == nil {
				return Value{typ: TypeDate, i: tm.Unix() / 86400}, nil
			}
		}
		return Null, fmt.Errorf("storage: parse DATE %q: unsupported format", s)
	default:
		return Null, fmt.Errorf("storage: parse into %s not supported", t)
	}
}

// Coerce converts v to type t when a lossless or standard SQL conversion
// exists (int ↔ float, anything → string representation is NOT implicit).
func (v Value) Coerce(t Type) (Value, error) {
	if v.typ == t || v.typ == TypeNull {
		return v, nil
	}
	switch {
	case v.typ == TypeInt && t == TypeFloat:
		return NewFloat(float64(v.i)), nil
	case v.typ == TypeFloat && t == TypeInt:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return NewInt(int64(v.f)), nil
		}
		return Null, fmt.Errorf("storage: cannot coerce non-integral %g to INTEGER", v.f)
	default:
		return Null, fmt.Errorf("storage: cannot coerce %s to %s", v.typ, t)
	}
}
