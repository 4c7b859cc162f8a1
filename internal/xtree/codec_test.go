package xtree

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/subspace"
	"repro/internal/vector"
)

func buildRandomTree(t *testing.T, n, d int, seed int64) (*Tree, *vector.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	for i := range data {
		data[i] = rng.NormFloat64() * 10
	}
	ds, err := vector.NewDataset(data, n, d)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(ds, vector.L2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tree, ds
}

// TestCodecRoundTrip: decode(encode(tree)) must validate, preserve
// every structural statistic, and answer k-NN queries identically.
func TestCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		n, d int
	}{
		{"tiny", 5, 2},
		{"one-leaf", 16, 3},
		{"mid", 300, 4},
		{"large-with-supernodes", 900, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tree, ds := buildRandomTree(t, c.n, c.d, int64(c.n))
			var buf bytes.Buffer
			if err := tree.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()), ds)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("decoded tree invalid: %v", err)
			}
			if got.Size() != tree.Size() || height(got) != height(tree) ||
				got.NodeCount() != tree.NodeCount() || got.SupernodeCount() != tree.SupernodeCount() {
				t.Fatalf("structure diverged: size %d/%d height %d/%d nodes %d/%d supernodes %d/%d",
					got.Size(), tree.Size(), height(got), height(tree),
					got.NodeCount(), tree.NodeCount(), got.SupernodeCount(), tree.SupernodeCount())
			}
			if got.Metric() != tree.Metric() || got.Config() != tree.Config() {
				t.Fatalf("metric/config diverged: %v/%v vs %v/%v",
					got.Metric(), got.Config(), tree.Metric(), tree.Config())
			}
			// Identical answers, including distance bytes and node visit
			// order side effects.
			rng := rand.New(rand.NewSource(7))
			sa, sb := NewSearcher(tree), NewSearcher(got)
			for q := 0; q < 25; q++ {
				query := make([]float64, c.d)
				for j := range query {
					query[j] = rng.NormFloat64() * 10
				}
				sub := subspace.Mask(rng.Intn(1<<c.d-1) + 1)
				k := 1 + rng.Intn(6)
				want := sa.KNN(query, sub, k, -1)
				have := sb.KNN(query, sub, k, -1)
				if !reflect.DeepEqual(want, have) {
					t.Fatalf("query %d: decoded tree answered differently:\n want %v\n have %v", q, want, have)
				}
			}
			if sa.Stats() != sb.Stats() {
				t.Fatalf("work counters diverged: %+v vs %+v", sa.Stats(), sb.Stats())
			}
		})
	}
}

// TestDecodeRejectsCorruptStreams: no mutation of a valid stream may
// panic, and structural corruptions must surface ErrDecode.
func TestDecodeRejectsCorruptStreams(t *testing.T) {
	tree, ds := buildRandomTree(t, 200, 3, 42)
	var buf bytes.Buffer
	if err := tree.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Every truncation must error, never panic.
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := Decode(bytes.NewReader(valid[:cut]), ds); !errors.Is(err, ErrDecode) {
			t.Fatalf("truncation at %d: err = %v, want ErrDecode", cut, err)
		}
	}

	// Single-byte corruptions: either the structure still validates
	// (rare float-only flips) or the decoder reports ErrDecode.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		mut := append([]byte(nil), valid...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= byte(1 << rng.Intn(8))
		if _, err := Decode(bytes.NewReader(mut), ds); err != nil && !errors.Is(err, ErrDecode) {
			t.Fatalf("corruption at %d: err = %v, want nil or ErrDecode", pos, err)
		}
	}

	// Wrong dataset size.
	small, err := vector.NewDataset(make([]float64, 3*10), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(valid), small); !errors.Is(err, ErrDecode) {
		t.Fatalf("dataset mismatch: err = %v, want ErrDecode", err)
	}
	// Nil dataset.
	if _, err := Decode(bytes.NewReader(valid), nil); !errors.Is(err, ErrDecode) {
		t.Fatalf("nil dataset: err = %v, want ErrDecode", err)
	}
	// Garbage magic.
	if _, err := Decode(bytes.NewReader([]byte("not a tree at all")), ds); !errors.Is(err, ErrDecode) {
		t.Fatalf("bad magic: err = %v, want ErrDecode", err)
	}
}
