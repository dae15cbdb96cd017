// Package trace renders experiment results as aligned text tables and CSV,
// and provides the small formatting helpers the harness and the benchmark
// suite share. The tables printed by cmd/aabench and bench_test.go are the
// repository's reproduction of the paper's evaluation artifacts.
package trace

import (
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned text rendering. Cell widths are measured in
// runes so unicode content (e.g. sparkline figures) stays aligned.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes an RFC-4180-ish CSV rendering (cells with commas or quotes are
// quoted).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(strconv.Quote(cell))
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float compactly for a table cell.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 0.01 && v < 1e6:
		return strconv.FormatFloat(v, 'f', 4, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// I formats an int.
func I(v int) string { return strconv.Itoa(v) }

// B formats a bool as yes/no.
func B(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// Ratio formats a/b with guards.
func Ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return F(a / b)
}
