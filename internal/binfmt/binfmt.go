// Package binfmt is the one binary codec behind the persistence
// formats — the .snap snapshot, the .wal delta log and the X-tree
// stream — and their one durable file write. It imports nothing from
// the repository, so every format can use it.
//
// Encoder appends fixed-width little-endian values to a byte slice;
// strings and blobs are u32-length-prefixed, float slices
// u32-count-prefixed. Decoder reads them back with a sticky error:
// every read is bounds-checked against the remaining input, every
// counted read checks that the remaining bytes can hold the count
// before it allocates, and after the first failure every read returns
// a zero value and consumes nothing. A failure wraps the error class
// the decoder was made with, so each format keeps its own errors.Is
// taxonomy (snapshot.ErrCorrupt, wal.ErrHeader, xtree.ErrDecode).
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Encoder appends little-endian values to a growing byte slice. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Grow reserves room for n more bytes.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Bytes returns the encoded bytes; they alias the encoder's buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns how many bytes have been encoded.
func (e *Encoder) Len() int { return len(e.buf) }

// Raw appends b as is, without a length prefix.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool encodes true as 1 and false as 0.
func (e *Encoder) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.U8(b)
}

func (e *Encoder) U32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) I64(v int64)   { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// PutU32 and PutU64 overwrite bytes at off that are already encoded:
// the backfill of a length or checksum that precedes the bytes it
// describes.
func (e *Encoder) PutU32(off int, v uint32) { binary.LittleEndian.PutUint32(e.buf[off:], v) }
func (e *Encoder) PutU64(off int, v uint64) { binary.LittleEndian.PutUint64(e.buf[off:], v) }

// Str appends a u32 length and the string's bytes.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a u32 length and the bytes.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.Raw(b)
}

// F64s appends a u32 count and the floats.
func (e *Encoder) F64s(vs []float64) {
	e.U32(uint32(len(vs)))
	e.Floats(vs)
}

// Floats appends the floats without a count.
func (e *Encoder) Floats(vs []float64) {
	for _, v := range vs {
		e.F64(v)
	}
}

// Decoder reads an Encoder's output back from a byte slice with a
// sticky error (see the package comment).
type Decoder struct {
	buf   []byte
	off   int
	err   error
	class error
}

// NewDecoder returns a decoder over buf whose failures wrap class.
func NewDecoder(buf []byte, class error) *Decoder {
	return &Decoder{buf: buf, class: class}
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Offset returns how many bytes have been consumed.
func (d *Decoder) Offset() int { return d.off }

// Remaining returns how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Failf records a failure, wrapping the decoder's class, unless one is
// already recorded: formats report their semantic checks through it,
// so the first problem found is the one returned.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.class, fmt.Sprintf(format, args...))
	}
}

// Raw returns the next n bytes, aliasing the input, or nil when fewer
// remain (or n is negative).
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Failf("%d-byte field overruns the %d bytes left", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	if b := d.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a byte; any non-zero value is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

func (d *Decoder) U32() uint32 {
	if b := d.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.Raw(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a u32-length-prefixed string.
func (d *Decoder) Str() string { return string(d.Raw(int(d.U32()))) }

// Blob reads a u32-length-prefixed byte string into a copy, so the
// result does not alias the input; an empty blob is nil.
func (d *Decoder) Blob() []byte {
	b := d.Raw(int(d.U32()))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Count reads a u32 element count and checks that the remaining bytes
// can hold that many elements of at least size bytes each, so the
// caller may allocate count elements. It returns 0 on failure.
func (d *Decoder) Count(size int) int {
	n := int(d.U32())
	if d.err == nil && d.Remaining()/size < n {
		d.Failf("count %d of %d-byte elements overruns the %d bytes left", n, size, d.Remaining())
	}
	if d.err != nil {
		return 0
	}
	return n
}

// F64s reads a u32-count-prefixed float slice.
func (d *Decoder) F64s() []float64 { return d.Floats(d.Count(8)) }

// Floats reads n floats. It checks the remaining bytes before it
// allocates and returns nil on failure, so a hostile n costs nothing.
func (d *Decoder) Floats(n int) []float64 {
	if d.err == nil && (n < 0 || d.Remaining()/8 < n) {
		d.Failf("%d floats overrun the %d bytes left", n, d.Remaining())
	}
	b := d.Raw(8 * n)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// WriteFile stores data at path atomically and durably: it writes a
// temporary file beside path — in filepath.Dir(path), never the
// system temp directory, so the rename cannot cross filesystems —
// fsyncs and closes it, renames it over path, then fsyncs the
// directory. The rename keeps a crash from leaving a half-written
// file under path; the directory fsync makes the new name itself
// durable, since on power loss an unsynced directory can forget the
// rename. On failure the temporary file is removed and whatever path
// held is untouched. It is the one place persistence creates and
// renames files.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
