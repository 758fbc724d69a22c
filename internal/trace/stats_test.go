package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "A", "Bee", "C")
	tb.AddRow("1", "2", "3")
	tb.AddRowf("x", 1500*time.Nanosecond, 0.123456)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "Bee") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "1500ns") {
		t.Errorf("duration cell not formatted: %s", out)
	}
	if !strings.Contains(out, "0.123") {
		t.Errorf("float cell not formatted: %s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("%d lines: %q", len(lines), out)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		5 * time.Nanosecond:     "5ns",
		42 * time.Microsecond:   "42.0us",
		3500 * time.Microsecond: "3500.0us",
		250 * time.Millisecond:  "250.00ms",
		12 * time.Second:        "12.00s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.00GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// A row with more cells than headers would render misaligned; AddRow
// treats it as a programming error.
func TestAddRowTooManyCellsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow with extra cells must panic")
		}
	}()
	tb := NewTable("t", "A", "B")
	tb.AddRow("1", "2", "3")
}

// Short rows pad with empty cells so ragged data renders aligned.
func TestAddRowShortRowPadded(t *testing.T) {
	tb := NewTable("t", "A", "B", "C")
	tb.AddRow("1")
	tb.AddRow("x", "y", "z")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	// Both data rows render at the full header width.
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("padded row width %d != full row width %d:\n%s", len(lines[3]), len(lines[4]), out)
	}
}

// Headerless tables keep accepting rows of any width.
func TestAddRowNoHeaders(t *testing.T) {
	tb := NewTable("")
	tb.AddRow("a", "b", "c")
	tb.AddRow("d")
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows %d", tb.NumRows())
	}
}
