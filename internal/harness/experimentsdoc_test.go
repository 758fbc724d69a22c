package harness_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesGolden holds EXPERIMENTS.md to the golden
// its tables claim to be excerpts of. Every markdown table in a section
// whose heading names a golden table (Fig. N, Table N, §N.N) is compared
// cell by cell: a doc row is the golden row with the same first cell, a
// doc column the golden column with the same header, and the two cells
// must agree at the document's precision — the golden value rounded to
// the doc's decimals, in the same unit where both state one. Columns
// the golden lacks (the paper's own numbers) are not compared; a row
// the golden lacks fails.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	golden := goldenTables(t, "testdata/experiments.golden")
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, dt := range docTables(string(doc)) {
		g, ok := golden[dt.ref]
		if !ok {
			t.Errorf("%s names %q, which the golden does not print", dt.section, dt.ref)
			continue
		}
		tables++
		compared := 0
		for _, row := range dt.rows {
			grow, ok := g.rows[label(row[0])]
			if !ok {
				t.Errorf("%s: row %q is not in the golden's %s", dt.section, row[0], dt.ref)
				continue
			}
			for i := 1; i < len(row) && i < len(dt.header); i++ {
				col, ok := g.cols[label(dt.header[i])]
				if !ok {
					continue
				}
				compared++
				if !cellAgrees(row[i], grow[col]) {
					t.Errorf("%s: row %q, column %q reads %q; the golden says %q",
						dt.section, row[0], dt.header[i], row[i], grow[col])
				}
			}
		}
		if compared == 0 {
			t.Errorf("%s: no cell of its table maps to the golden's %s", dt.section, dt.ref)
		}
	}
	if tables == 0 {
		t.Fatal("no table in EXPERIMENTS.md names a golden table")
	}
}

// goldenTable is one golden table, indexed by row label and column.
type goldenTable struct {
	cols map[string]int
	rows map[string][]string
}

// goldenTables parses the golden into its tables, keyed by the part of
// each "== Title: … ==" line before the colon. Columns are separated by
// two or more spaces.
func goldenTables(t *testing.T, path string) map[string]goldenTable {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cells := regexp.MustCompile(`\s{2,}`)
	out := map[string]goldenTable{}
	lines := strings.Split(string(data), "\n")
	for i := 0; i+2 < len(lines); i++ {
		title, ok := strings.CutPrefix(lines[i], "== ")
		if !ok {
			continue
		}
		key, _, _ := strings.Cut(title, ":")
		g := goldenTable{cols: map[string]int{}, rows: map[string][]string{}}
		for c, h := range cells.Split(strings.TrimSpace(lines[i+1]), -1) {
			g.cols[label(h)] = c
		}
		for _, l := range lines[i+3:] {
			if strings.TrimSpace(l) == "" {
				break
			}
			row := cells.Split(strings.TrimSpace(l), -1)
			g.rows[label(row[0])] = row
		}
		out[key] = g
	}
	return out
}

// docTable is one markdown table of EXPERIMENTS.md and the golden table
// its section names.
type docTable struct {
	section, ref string
	header       []string
	rows         [][]string
}

// goldenRef finds the figure reference in a section heading, and
// goldenTitle spells each kind of reference as the golden's titles do.
var (
	goldenRef   = regexp.MustCompile(`(Fig\. |Table |§)(\d+(?:\.\d+)?)`)
	goldenTitle = map[string]string{"Fig. ": "Figure ", "Table ": "Table ", "§": "Section "}
)

// docTables returns the markdown tables under headings that name a
// golden table.
func docTables(doc string) []docTable {
	var out []docTable
	var section, ref string
	var cur *docTable
	for _, l := range strings.Split(doc, "\n") {
		if h, ok := strings.CutPrefix(l, "## "); ok {
			section, ref = h, ""
			if m := goldenRef.FindStringSubmatch(h); m != nil {
				ref = goldenTitle[m[1]] + m[2]
			}
		}
		if !strings.HasPrefix(l, "|") || ref == "" {
			cur = nil
			continue
		}
		cells := strings.Split(strings.Trim(l, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		switch {
		case cur == nil:
			out = append(out, docTable{section: section, ref: ref, header: cells})
			cur = &out[len(out)-1]
		case strings.HasPrefix(cells[0], "---"):
		default:
			cur.rows = append(cur.rows, cells)
		}
	}
	return out
}

// label normalizes a row or column label: case, emphasis and spaces
// do not count.
func label(s string) string {
	return strings.ToLower(strings.NewReplacer("*", "", " ", "").Replace(s))
}

// number matches a cell's leading value and the unit right after it.
var number = regexp.MustCompile(`^([+-]?[0-9][0-9,]*(?:\.([0-9]+))?) ?([a-zA-Zµ%×/]*)`)

// cellAgrees reports whether a doc cell states the golden cell: numbers
// equal at the doc's decimals (and units equal where both give one),
// anything else equal as a label.
func cellAgrees(doc, golden string) bool {
	doc = strings.ReplaceAll(doc, "*", "")
	d, g := number.FindStringSubmatch(doc), number.FindStringSubmatch(golden)
	if d == nil || g == nil {
		return label(doc) == label(golden)
	}
	dv, err1 := strconv.ParseFloat(strings.ReplaceAll(d[1], ",", ""), 64)
	gv, err2 := strconv.ParseFloat(strings.ReplaceAll(g[1], ",", ""), 64)
	if err1 != nil || err2 != nil {
		return false
	}
	places := len(d[2])
	unit := strings.NewReplacer("µ", "u", "×", "x")
	if du, gu := unit.Replace(d[3]), unit.Replace(g[3]); du != "" && gu != "" && du != gu {
		return false
	}
	return strconv.FormatFloat(dv, 'f', places, 64) == strconv.FormatFloat(gv, 'f', places, 64)
}
