// Package trace provides the table formatting the experiment harness
// reports the paper's figures and tables with, and the event tracer
// (tracer.go).
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Table formats rows of experiment output with aligned columns, in the
// spirit of the rows the paper reports per figure.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns an empty table.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a formatted row. A row with more cells than the table
// has headers is a programming error (the extra cells would render
// misaligned under no column) and panics; a short row is padded with
// empty cells so ragged data stays readable.
func (t *Table) AddRow(cells ...string) {
	if n := len(t.headers); n > 0 {
		if len(cells) > n {
			panic(fmt.Sprintf("trace: table %q row has %d cells for %d headers", t.title, len(cells), n))
		}
		for len(cells) < n {
			cells = append(cells, "")
		}
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row where each cell is fmt.Sprint of the argument, with
// durations and floats given compact formatting.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case time.Duration:
			row[i] = FormatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// NumRows reports how many data rows the table holds.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders a virtual-time duration with a unit chosen for
// readability (ns below 10us, us below 10ms, ms below 10s, else seconds).
func FormatDuration(d time.Duration) string {
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
	case d < 10*time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// FormatBytes renders a byte count in binary units.
func FormatBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	}
}
