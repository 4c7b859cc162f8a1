package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
)

// withHeader wraps payload in a valid header whose length and CRC
// match it.
func withHeader(payload []byte) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// FuzzSnapshotPayload fuzzes past the checksum: every mutated payload
// gets a header that matches it, so the input reaches decodePayload
// and, when it decodes with state, the X-tree decoder behind Restore.
// A decode must fail as ErrCorrupt or yield a snapshot that restores
// or refuses without panicking, and that re-encodes into bytes Read
// accepts; no input may size an allocation by its claims alone.
func FuzzSnapshotPayload(f *testing.F) {
	f.Add([]byte{})
	// Small seeds keep each execution, and the minimization of every
	// new input, cheap: one per payload shape.
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 16, D: 2, NumOutliers: 1, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(s *Snapshot, cfg *core.Config) {
		if cfg != nil {
			m, err := s.Miner(*cfg, nil)
			if err != nil {
				f.Fatal(err)
			}
			norm := s.NormStats
			if s, err = Capture("f", s.Provenance, m); err != nil {
				f.Fatal(err)
			}
			s.NormStats = norm
		}
		b, err := encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[headerLen:])
	}
	plain := func() *Snapshot {
		s, err := FromDataset("f", Provenance{Generator: "synthetic", Seed: 3, CreatedUnix: 1}, ds)
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	seed(plain(), &core.Config{K: 2, TQuantile: 0.9, SampleSize: 4, Seed: 1, Backend: core.BackendXTree})
	seed(plain(), &core.Config{K: 2, T: 1, Seed: 1, Backend: core.BackendXTree, Shards: 2, Partitioner: shard.HashPoint})
	norm := plain()
	if err := norm.Normalize(); err != nil {
		f.Fatal(err)
	}
	seed(norm, &core.Config{K: 2, TQuantile: 0.9, Seed: 1, Backend: core.BackendLinear})
	named := plain()
	named.Dataset = ds.Clone()
	if err := named.Dataset.SetColumns([]string{"a", "b"}); err != nil {
		f.Fatal(err)
	}
	seed(named, nil)
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := Read(bytes.NewReader(withHeader(payload)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a payload under a matching header failed outside ErrCorrupt: %v", err)
			}
			return
		}
		if s.Dataset == nil {
			t.Fatal("nil dataset on successful read")
		}
		if s.HasState() {
			_, _ = s.Restore()
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
	})
}
