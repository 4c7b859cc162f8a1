package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenHeader and goldenFrames are the inputs of testdata/golden.wal:
// a log over a 5-row, 3-dim base holding two group-commit batch
// frames, the first mixing an append and a delete.
var goldenHeader = Header{Dim: 3, BaseCRC: 0x1234abcd, NextID: 5, BaseIDs: []int64{0, 1, 2, 3, 4}}

var goldenFrames = []struct {
	stamp int64
	recs  []Record
}{
	{1700000000000000000, []Record{
		{Type: RecordAppend, FirstID: 5, Rows: [][]float64{{1.5, -2, 0.25}, {3, 4, 5}}},
		{Type: RecordDelete, FromID: 1, ToID: 3},
	}},
	{1700000001000000000, []Record{
		{Type: RecordAppend, FirstID: 7, Rows: [][]float64{{-0.5, 1e-300, 6}}},
	}},
}

// writeGoldenLog journals frames over h through the live writer and
// returns the file's bytes.
func writeGoldenLog(t *testing.T, h Header, frames [][]Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.wal")
	l, err := Create(path, h, SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, recs := range frames {
		if err := l.AppendBatch(recs[0].Stamp, recs); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenWALBytes pins the log layout: Create plus AppendBatch
// reproduce the committed fixture exactly, and replaying it and
// journaling what replayed, frame by frame, reproduces it again.
func TestGoldenWALBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]Record
	for _, f := range goldenFrames {
		recs := make([]Record, len(f.recs))
		for i, r := range f.recs {
			r.Stamp = f.stamp
			recs[i] = r
		}
		frames = append(frames, recs)
	}
	if got := writeGoldenLog(t, goldenHeader, frames); !bytes.Equal(got, want) {
		t.Fatalf("writer output (%d bytes) differs from the fixture (%d bytes)", len(got), len(want))
	}

	rep, err := Replay(want)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn || rep.Frames != 2 || rep.ValidLen != int64(len(want)) {
		t.Fatalf("fixture replayed torn=%v frames=%d validLen=%d of %d", rep.Torn, rep.Frames, rep.ValidLen, len(want))
	}
	if !reflect.DeepEqual(rep.Header, goldenHeader) {
		t.Fatalf("header %+v, want %+v", rep.Header, goldenHeader)
	}
	// Batch frames carry distinct stamps, so regrouping the flattened
	// records by stamp recovers the frames.
	var again [][]Record
	for i, rec := range rep.Records {
		if i == 0 || rec.Stamp != rep.Records[i-1].Stamp {
			again = append(again, nil)
		}
		again[len(again)-1] = append(again[len(again)-1], rec)
	}
	if !reflect.DeepEqual(again, frames) {
		t.Fatalf("replayed frames %+v, want %+v", again, frames)
	}
	if got := writeGoldenLog(t, rep.Header, again); !bytes.Equal(got, want) {
		t.Fatal("replay → journal does not reproduce the fixture")
	}
}
