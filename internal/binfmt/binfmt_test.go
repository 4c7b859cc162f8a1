package binfmt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

var errClass = errors.New("test format: corrupt")

// TestRoundTrip: every value the encoder writes reads back unchanged,
// in the documented little-endian layout.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.Grow(64)
	e.Raw([]byte("MAGIC"))
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 40)
	e.I64(-3)
	e.F64(math.Pi)
	e.Str("name")
	e.Blob([]byte{1, 2, 3})
	e.Blob(nil)
	e.F64s([]float64{1.5, -2})
	e.Floats([]float64{math.MaxFloat64})
	if e.Len() != len(e.Bytes()) {
		t.Fatalf("Len %d, Bytes %d", e.Len(), len(e.Bytes()))
	}
	if got := e.Bytes()[5+1+2 : 5+1+2+4]; !bytes.Equal(got, []byte{0xef, 0xbe, 0xad, 0xde}) {
		t.Fatalf("u32 bytes %x are not little-endian", got)
	}

	d := NewDecoder(e.Bytes(), errClass)
	if got := string(d.Raw(5)); got != "MAGIC" {
		t.Fatalf("raw %q", got)
	}
	if d.U8() != 7 || !d.Bool() || d.Bool() || d.U32() != 0xdeadbeef || d.U64() != 1<<40 || d.I64() != -3 || d.F64() != math.Pi {
		t.Fatal("fixed-width values did not round-trip")
	}
	if d.Str() != "name" {
		t.Fatal("string did not round-trip")
	}
	if b := d.Blob(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("blob %v", b)
	}
	if b := d.Blob(); b != nil {
		t.Fatalf("empty blob decoded as %v, want nil", b)
	}
	if fs := d.F64s(); !reflect.DeepEqual(fs, []float64{1.5, -2}) {
		t.Fatalf("floats %v", fs)
	}
	if fs := d.Floats(1); fs[0] != math.MaxFloat64 {
		t.Fatalf("uncounted floats %v", fs)
	}
	if d.Err() != nil || d.Remaining() != 0 || d.Offset() != e.Len() {
		t.Fatalf("err=%v remaining=%d offset=%d of %d", d.Err(), d.Remaining(), d.Offset(), e.Len())
	}
}

// TestBlobDoesNotAlias: a decoded blob survives changes to the input.
func TestBlobDoesNotAlias(t *testing.T) {
	var e Encoder
	e.Blob([]byte("abc"))
	buf := e.Bytes()
	b := NewDecoder(buf, errClass).Blob()
	buf[len(buf)-1] = 'X'
	if string(b) != "abc" {
		t.Fatalf("blob aliases its input: %q", b)
	}
}

// TestPutU32Backfills: placeholders written early are overwritten in
// place, and Grow keeps what was encoded.
func TestPutU32Backfills(t *testing.T) {
	var e Encoder
	e.U8(1)
	at := e.Len()
	e.U32(0)
	e.U64(0)
	e.Str("payload")
	e.Grow(1 << 10)
	e.PutU32(at, uint32(e.Len()))
	e.PutU64(at+4, 1<<40)
	d := NewDecoder(e.Bytes(), errClass)
	if d.U8() != 1 || int(d.U32()) != e.Len() || d.U64() != 1<<40 || d.Str() != "payload" {
		t.Fatal("backfilled field or the bytes around it changed")
	}
}

// TestStickyError: the first failure wraps the class, later reads
// return zero values and consume nothing, and the first failure is
// the one reported.
func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3}, errClass)
	if v := d.U32(); v != 0 {
		t.Fatalf("overrunning read returned %d", v)
	}
	err := d.Err()
	if !errors.Is(err, errClass) {
		t.Fatalf("err = %v, want the decoder's class", err)
	}
	if d.U8() != 0 || d.Bool() || d.U64() != 0 || d.I64() != 0 || d.F64() != 0 || d.Str() != "" ||
		d.Blob() != nil || d.F64s() != nil || d.Floats(0) != nil || d.Raw(0) != nil || d.Count(1) != 0 {
		t.Fatal("a read after the failure returned data")
	}
	d.Failf("later problem %d", 2)
	if d.Err() != err || d.Offset() != 0 || d.Remaining() != 3 {
		t.Fatalf("failure not sticky: err=%v offset=%d", d.Err(), d.Offset())
	}

	d = NewDecoder(nil, errClass)
	d.Failf("bad field %d", 9)
	if !errors.Is(d.Err(), errClass) || d.Err().Error() != "test format: corrupt: bad field 9" {
		t.Fatalf("Failf err = %v", d.Err())
	}
	if d = NewDecoder([]byte{0}, errClass); d.Raw(-1) != nil || d.Err() == nil {
		t.Fatal("negative length accepted")
	}
}

// TestCountedReadsCheckBeforeAllocating: a count the remaining bytes
// cannot hold fails before any allocation sized by it.
func TestCountedReadsCheckBeforeAllocating(t *testing.T) {
	var e Encoder
	e.U32(math.MaxUint32)
	e.F64(1)
	huge := e.Bytes()
	for name, read := range map[string]func(d *Decoder){
		"Count":  func(d *Decoder) { d.Count(8) },
		"F64s":   func(d *Decoder) { d.F64s() },
		"Str":    func(d *Decoder) { _ = d.Str() },
		"Blob":   func(d *Decoder) { d.Blob() },
		"Floats": func(d *Decoder) { d.Floats(1 << 40) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDecoder(huge, errClass)
		read(d)
		runtime.ReadMemStats(&after)
		if !errors.Is(d.Err(), errClass) {
			t.Fatalf("%s: err = %v, want the decoder's class", name, d.Err())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: allocated %d bytes for a rejected count", name, grew)
		}
	}
	if d := NewDecoder(huge, errClass); d.Floats(-1) != nil || d.Err() == nil {
		t.Fatal("negative float count accepted")
	}
	// A count that fits is returned as is.
	var ok Encoder
	ok.U32(2)
	ok.Raw(make([]byte, 8))
	if d := NewDecoder(ok.Bytes(), errClass); d.Count(4) != 2 || d.Err() != nil {
		t.Fatal("fitting count rejected")
	}
}

// TestWriteFile: the file lands under its name with exactly the
// bytes given, replacing what was there, and nothing else is left in
// the directory.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("file holds %q, want %q", got, data)
		}
	}
	assertOnly(t, dir, "state.bin")
}

// TestWriteFileFailures: a missing directory fails before anything is
// written, and a rename that cannot replace the target (a non-empty
// directory squats on the name) fails without leaving the temp file
// behind.
func TestWriteFileFailures(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "missing", "x"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	squat := filepath.Join(dir, "x")
	if err := os.MkdirAll(filepath.Join(squat, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(squat, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	assertOnly(t, dir, "x")
}

func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("directory holds %v, want just %s", entries, name)
	}
}
