package trace

import (
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tbl := NewTable("title", "name", "value")
	tbl.AddRow("a", "1")
	tbl.AddRow("longer", "22")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "title" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name    value") {
		t.Errorf("header %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "------  -----") {
		t.Errorf("rule %q", lines[2])
	}
	// All rows padded to the same width.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("misaligned rows %q vs %q", lines[3], lines[4])
	}
}

func TestRenderNoTitle(t *testing.T) {
	tbl := NewTable("", "c")
	tbl.AddRow("x")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(sb.String(), "\n") {
		t.Error("leading blank line for empty title")
	}
}

func TestShortRowPadded(t *testing.T) {
	tbl := NewTable("t", "a", "b", "c")
	tbl.AddRow("only")
	if len(tbl.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tbl.Rows[0])
	}
	if tbl.Rows[0][1] != "" || tbl.Rows[0][2] != "" {
		t.Errorf("padding cells not empty: %v", tbl.Rows[0])
	}
}

func TestCSV(t *testing.T) {
	tbl := NewTable("ignored", "x", "y")
	tbl.AddRow("plain", `has,comma`)
	tbl.AddRow(`has"quote`, "line\nbreak")
	var sb strings.Builder
	if err := tbl.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "x,y\nplain,\"has,comma\"\n\"has\\\"quote\",\"line\\nbreak\"\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant:\n%q", got, want)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		0.5:   "0.5000",
		123:   "123.0000",
		1e7:   "1e+07",
		1e-09: "1e-09",
	}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
	if I(42) != "42" {
		t.Error("I(42)")
	}
	if B(true) != "yes" || B(false) != "no" {
		t.Error("B")
	}
	if Ratio(1, 0) != "n/a" {
		t.Error("Ratio divide by zero")
	}
	if Ratio(1, 2) != "0.5000" {
		t.Errorf("Ratio(1,2) = %q", Ratio(1, 2))
	}
}
