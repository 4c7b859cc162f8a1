package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// TestReadBoundsDatasetAllocation: a re-checksummed snapshot whose
// header claims 2^22 rows and whose first column name overruns the
// payload must fail as ErrCorrupt without sizing any allocation by
// the claimed rows — the dataset read is bounded by the bytes present
// even after an earlier field has failed.
func TestReadBoundsDatasetAllocation(t *testing.T) {
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, 1) // name
	p = append(p, 'x')
	p = binary.LittleEndian.AppendUint32(p, 0) // generator
	p = binary.LittleEndian.AppendUint64(p, 0) // seed
	p = binary.LittleEndian.AppendUint32(p, 0) // source
	p = append(p, 0)                           // normalized
	p = binary.LittleEndian.AppendUint64(p, 0) // created
	p = binary.LittleEndian.AppendUint32(p, 1<<22)
	p = binary.LittleEndian.AppendUint32(p, 1) // dim
	p = append(p, 1)                           // has column names
	p = binary.LittleEndian.AppendUint32(p, 1<<20)
	b := append([]byte("HOSSNAP1"), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[8:], Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
	b = append(b, p...)
	if len(b) != 67 {
		t.Fatalf("crafted snapshot is %d bytes, want 67", len(b))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a 67-byte input", grew)
	}
}
