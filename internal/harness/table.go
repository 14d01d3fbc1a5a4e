package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is an experiment's rendered result: a titled grid plus free-form
// notes (fitted exponents, pass rates, caveats).
type Table struct {
	ID      string
	Title   string
	Claim   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	return s
}

// Render formats the table as GitHub-flavored markdown (directly
// embeddable in a markdown document such as a results page).
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "Claim: %s\n\n", t.Claim)
	}
	if len(t.Columns) > 0 {
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len([]rune(c))
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len([]rune(cell)) > widths[i] {
					widths[i] = len([]rune(cell))
				}
			}
		}
		writeRow := func(cells []string) {
			b.WriteString("|")
			for i, w := range widths {
				cell := ""
				if i < len(cells) {
					cell = cells[i]
				}
				fmt.Fprintf(&b, " %-*s |", w, cell)
			}
			b.WriteString("\n")
		}
		writeRow(t.Columns)
		b.WriteString("|")
		for _, w := range widths {
			b.WriteString(strings.Repeat("-", w+2))
			b.WriteString("|")
		}
		b.WriteString("\n")
		for _, row := range t.Rows {
			writeRow(row)
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	return b.String()
}

// WriteCSV emits the grid (header + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
