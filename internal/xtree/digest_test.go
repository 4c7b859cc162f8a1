package xtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vector"
)

// TestTreeDigests pins the exact trees Build produces beyond the 100×3
// golden fixture: the SHA-256 of Tree.Encode for the synthetic shapes
// the service runs at, and for tie-heavy grid data that drives both
// splits into supernodes. Every case is also built as Build(first
// half) followed by Append(full), which must reach the same bytes. The
// digests were generated by the insertion code at commit 0912901; a
// change to construction that alters any of them changes the trees.
// The heavy cases take minutes under the race detector with coverage,
// so they run in uninstrumented builds only.
func TestTreeDigests(t *testing.T) {
	synthetic := func(n, d int) func(testing.TB) *vector.Dataset {
		return func(tb testing.TB) *vector.Dataset {
			ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: n, D: d, NumOutliers: 5, Seed: 1})
			if err != nil {
				tb.Fatal(err)
			}
			return ds
		}
	}
	for _, tc := range []struct {
		name       string
		data       func(testing.TB) *vector.Dataset
		cfg        Config
		supernodes int
		digest     string
		heavy      bool
	}{
		{"synthetic_3000x8", synthetic(3000, 8), DefaultConfig(), 0,
			"02f26930dffba730d4532947249a7c9b4a442d52b0fe3d991c6ad2868490d21e", false},
		{"synthetic_4000x12", synthetic(4000, 12), DefaultConfig(), 0,
			"4bb532961f36b8fcd6c01be940a8e5add7c5e186bdc97a5ebf9761c0606d820b", false},
		{"synthetic_20000x8", synthetic(20000, 8), DefaultConfig(), 1,
			"b5a4060a99cf903f22df65f413013a2126e000cf306eea76634220605c202605", true},
		{"synthetic_20000x10", synthetic(20000, 10), DefaultConfig(), 2,
			"77275bde4a8dc89e0ad40f9cf31660d7fb1a31365949e901d3c6426cba6d03ad", true},
		{"ties_default", tieHeavyDataset, DefaultConfig(), 1,
			"efe3cbe0a6733f39382b91302d2a4607f30ff4d09bff9ef6a46dc74a32c593ad", false},
		{"ties_m6", tieHeavyDataset, Config{MaxEntries: 6}, 1,
			"c4876a7dc9a197ed23ab3f104a66459a15cf0a733e0c7aff4c5387fe4ada768a", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && raceEnabled {
				t.Skip("minutes under the race detector; runs uninstrumented")
			}
			ds := tc.data(t)
			full, err := Build(ds, vector.L2, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := treeDigest(t, full); got != tc.digest {
				t.Errorf("Build digest %s, want %s", got, tc.digest)
			}
			if got := full.SupernodeCount(); got != tc.supernodes {
				t.Errorf("Build made %d supernodes, want %d", got, tc.supernodes)
			}
			half, err := vector.NewDataset(ds.Slab()[:ds.N()/2*ds.Dim()], ds.N()/2, ds.Dim())
			if err != nil {
				t.Fatal(err)
			}
			base, err := Build(half, vector.L2, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			grown, err := base.Append(ds)
			if err != nil {
				t.Fatal(err)
			}
			if got := treeDigest(t, grown); got != tc.digest {
				t.Errorf("Append digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// tieHeavyDataset is 1200 rows in 7 dimensions on a five-step integer
// grid: column 0 is constant, column 1 mixes +0 and -0, and the last
// quarter of the rows repeats earlier rows. Ties in every sort key and
// degenerate extents are where split bookkeeping can slip.
func tieHeavyDataset(tb testing.TB) *vector.Dataset {
	const n, d = 1200, 7
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, n)
	distinct := n - n/4
	for i := 0; i < distinct; i++ {
		row := make([]float64, d)
		row[0] = 3
		for j := 1; j < d; j++ {
			row[j] = float64(rng.Intn(5) - 2)
		}
		if row[1] == 0 && rng.Intn(2) == 0 {
			row[1] = math.Copysign(0, -1)
		}
		rows[i] = row
	}
	for i := distinct; i < n; i++ {
		rows[i] = append([]float64(nil), rows[rng.Intn(distinct)]...)
	}
	ds, err := vector.FromRows(rows)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

func treeDigest(tb testing.TB, tr *Tree) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
