package dataio

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vector"
)

func TestRoundTripWithHeader(t *testing.T) {
	ds, _ := vector.FromRows([][]float64{{1.5, -2}, {0, 1e-9}, {math.MaxFloat64, 3}})
	if err := ds.SetColumns([]string{"alpha", "beta"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds, true); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 || back.Dim() != 2 {
		t.Fatalf("shape (%d,%d)", back.N(), back.Dim())
	}
	if back.ColumnName(0) != "alpha" || back.ColumnName(1) != "beta" {
		t.Fatalf("columns = %v", back.Columns())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if back.Point(i)[j] != ds.Point(i)[j] {
				t.Fatalf("value (%d,%d): %v != %v", i, j, back.Point(i)[j], ds.Point(i)[j])
			}
		}
	}
}

func TestRoundTripNoHeader(t *testing.T) {
	ds, _ := vector.FromRows([][]float64{{1, 2}, {3, 4}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds, false); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Columns() != nil {
		t.Fatalf("shape/cols: %d %v", back.N(), back.Columns())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"header only":  "a,b\n",
		"ragged":       "1,2\n3\n",
		"non-numeric":  "1,2\n3,x\n",
		"ragged first": "a,b\n1,2,3\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReadCSVHeaderDetection(t *testing.T) {
	// All-numeric first row is data, not header.
	ds, err := ReadCSV(strings.NewReader("1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 {
		t.Fatalf("numeric first row should be data: N = %d", ds.N())
	}
}

func TestWriteCSVNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil, true); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	ds, _ := vector.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err := SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Dim() != 3 {
		t.Fatalf("shape (%d,%d)", back.N(), back.Dim())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestWriteCSVRejectsNonFinite is the regression test for the
// NaN/±Inf round-trip hole: such values used to serialize into cells
// that either failed a later ReadCSV outright or silently passed
// allNumeric and sheared rows into headers. The write now fails with
// ErrNonFinite before emitting anything, and the read side enforces
// the same contract on external files.
func TestWriteCSVRejectsNonFinite(t *testing.T) {
	cases := map[string]float64{
		"NaN":  math.NaN(),
		"+Inf": math.Inf(1),
		"-Inf": math.Inf(-1),
	}
	for name, v := range cases {
		ds, _ := vector.FromRows([][]float64{{1, 2}, {v, 4}})
		var buf bytes.Buffer
		err := WriteCSV(&buf, ds, true)
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: err = %v, want ErrNonFinite", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: partial output emitted (%d bytes)", name, buf.Len())
		}
	}
	// Read side: spelled-out non-finite cells are rejected, not parsed.
	for _, in := range []string{"1,2\nNaN,4\n", "1,2\n+Inf,4\n", "a,b\n1,-Inf\n"} {
		if _, err := ReadCSV(strings.NewReader(in)); !errors.Is(err, ErrNonFinite) {
			t.Errorf("ReadCSV(%q): err = %v, want ErrNonFinite", in, err)
		}
	}
}
