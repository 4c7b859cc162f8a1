package xtree

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTreeBytes pins the X-tree stream layout: the tree built
// over a seeded 100×3 dataset encodes to exactly testdata/golden.xtree,
// and decoding the fixture and encoding the result reproduces it.
func TestGoldenTreeBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.xtree"))
	if err != nil {
		t.Fatal(err)
	}
	tree, ds := buildRandomTree(t, 100, 3, 11)
	var buf bytes.Buffer
	if err := tree.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoder output (%d bytes) differs from the fixture (%d bytes)", buf.Len(), len(want))
	}
	back, err := Decode(bytes.NewReader(want), ds)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := back.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("decode → encode does not reproduce the fixture")
	}
}
