package grid

import (
	"fmt"
	"strings"
)

// RenderMatrix pivots the table on two axes: one text matrix per
// requested stat, with a row per rowAxis value and a column per colAxis
// value, each cell showing that stat's mean. Stats are looked up first
// in the cell's Values, then its Metrics; cells without the stat (or
// absent from the grid) render as "-". When the table has axes beyond
// the two pivots, one matrix section is emitted per combination of the
// remaining axes, in enumeration order.
//
// Like the other renderers, the output is byte-deterministic for a
// deterministic Table. Unknown or identical axis names panic (a
// programming error, as in Cell.Value).
func (t *Table) RenderMatrix(rowAxis, colAxis string, stats ...string) string {
	ri, ci := t.axisIndex(rowAxis), t.axisIndex(colAxis)
	if ri == ci {
		panic(fmt.Sprintf("grid: RenderMatrix row and column axes are both %q", rowAxis))
	}
	var rest []Axis
	for i, a := range t.Axes {
		if i != ri && i != ci {
			rest = append(rest, a)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "grid: %s matrix rows=%s cols=%s R=%d rootseed=%d errors=%d\n",
		t.Name, rowAxis, colAxis, t.Replicas, t.RootSeed, t.Errs())
	for _, restCell := range enumerate(rest) {
		section := restCell.Key()
		for _, stat := range stats {
			if len(rest) > 0 {
				fmt.Fprintf(&b, "== %s %s\n", section, stat)
			} else {
				fmt.Fprintf(&b, "== %s\n", stat)
			}
			t.writeMatrix(&b, ri, ci, restCell, stat)
		}
	}
	return b.String()
}

// axisIndex resolves an axis name, panicking on an unknown one.
func (t *Table) axisIndex(name string) int {
	for i, a := range t.Axes {
		if a.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("grid: table has no axis %q", name))
}

// writeMatrix emits one aligned stat matrix for a fixed setting of the
// non-pivot axes.
func (t *Table) writeMatrix(b *strings.Builder, ri, ci int, rest Cell, stat string) {
	rows, cols := t.Axes[ri], t.Axes[ci]
	// Assemble all cell texts first so every column can be width-aligned.
	grid := make([][]string, len(rows.Values)+1)
	grid[0] = append([]string{rows.Name + `\` + cols.Name}, renderVals(cols.Values)...)
	for r, rv := range rows.Values {
		line := []string{fmt.Sprint(rv)}
		for _, cv := range cols.Values {
			line = append(line, t.matrixCell(ri, ci, rv, cv, rest, stat))
		}
		grid[r+1] = line
	}
	widths := make([]int, len(grid[0]))
	for _, line := range grid {
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, line := range grid {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
}

// matrixCell renders one pivot cell's stat mean, or "-" when the cell
// or stat is missing.
func (t *Table) matrixCell(ri, ci int, rv, cv any, rest Cell, stat string) string {
	coords := make([]string, len(t.Axes))
	restIdx := 0
	for i, a := range t.Axes {
		var v any
		switch i {
		case ri:
			v = rv
		case ci:
			v = cv
		default:
			v = rest.coord[restIdx]
			restIdx++
		}
		coords[i] = fmt.Sprintf("%s=%v", a.Name, v)
	}
	key := strings.Join(coords, "/")
	if len(coords) == 0 {
		key = "all"
	}
	cr := t.byKey[key]
	if cr == nil {
		return "-"
	}
	if s, ok := cr.Agg.Values[stat]; ok {
		return fmt.Sprintf("%.3f", s.Mean)
	}
	if s, ok := cr.Agg.Metrics()[stat]; ok {
		return fmt.Sprintf("%.3f", s.Mean)
	}
	return "-"
}

// renderVals renders axis values for the matrix header row.
func renderVals(vals []any) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprint(v)
	}
	return out
}
