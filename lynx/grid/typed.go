package grid

import "fmt"

// Typed axis and cell accessors. Axis.Values is []any because a grid
// crosses heterogeneous dimensions, but every call site knows the
// concrete type of the axis it built; these generic helpers keep the
// type in one place at construction and lookup, and a mismatch panics
// with a message that names the axis, the value, and both types.

// AxisOf builds an axis from a typed value slice.
func AxisOf[T any](name string, values ...T) Axis {
	vals := make([]any, len(values))
	for i, v := range values {
		vals[i] = v
	}
	return Axis{Name: name, Values: vals}
}

// MustAs returns the cell's value on the named axis as a T. An unknown
// axis or a value of another type is a programming error in the grid
// body, so it panics.
func MustAs[T any](c Cell, axis string) T {
	for i, a := range c.axes {
		if a.Name != axis {
			continue
		}
		v, ok := c.coord[i].(T)
		if !ok {
			panic(fmt.Errorf("grid: axis %q holds %T (%v), not %T", axis, c.coord[i], c.coord[i], v))
		}
		return v
	}
	panic(fmt.Errorf("grid: cell %s has no axis %q", c.Key(), axis))
}

// Has reports whether the cell carries the named axis — the guard for
// optional axes (a fault-scenario axis exists only on faulted sweeps).
func (c Cell) Has(axis string) bool {
	for _, a := range c.axes {
		if a.Name == axis {
			return true
		}
	}
	return false
}
