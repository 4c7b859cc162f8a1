// Package snapshot persists a named dataset together with every
// preprocessing artifact the serving path needs — the normalized
// vector.Dataset, generation provenance, the full miner configuration
// (including shard layout), the resolved threshold and learned priors,
// and the serialized X-tree index — in a versioned, checksummed binary
// file. Restoring a snapshot reconstructs a miner that answers every
// query byte-identically to the freshly built one (internal/conformance
// pins this across backends and shard widths) while skipping threshold
// resolution, learning AND index construction, which dominate startup
// cost on large datasets.
//
// On-disk layout (all integers little-endian; see DESIGN.md §8):
//
//	[8]  magic "HOSSNAP1"
//	[4]  format version (currently 1)
//	[8]  payload length in bytes
//	[4]  CRC-32 (IEEE) of the payload
//	[..] payload: name, provenance, dataset, config, state?, index?
//
// The CRC covers the entire payload, so a flipped bit anywhere is
// detected before any field is trusted; within the payload every read
// is bounds-checked and every enum validated, so a corrupt or hostile
// file yields a typed error (ErrBadMagic, ErrVersion, ErrTruncated,
// ErrChecksum, ErrCorrupt — all matching errors.Is(err, ErrSnapshot)),
// never a panic. A snapshot may be dataset-only (hosgen -save, or a CSV
// or generator opened in memory): it carries no preprocessed state or
// index, and Miner mines it under the caller's parameters instead of
// restoring it.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Magic identifies a snapshot file; Version guards the payload layout.
// Version bumps are compatibility breaks: readers reject newer
// versions rather than guessing (the format carries no migration
// metadata by design — snapshots are rebuildable caches, not archives).
const (
	Version = 1
)

var magic = [8]byte{'H', 'O', 'S', 'S', 'N', 'A', 'P', '1'}

// ErrSnapshot is the class every decode failure matches via errors.Is,
// whatever the specific cause below.
var ErrSnapshot = errors.New("snapshot: invalid snapshot")

// Typed decode failures. All wrap ErrSnapshot.
var (
	// ErrBadMagic: the file does not start with the snapshot magic —
	// not a snapshot at all.
	ErrBadMagic = fmt.Errorf("%w: bad magic (not a snapshot file)", ErrSnapshot)
	// ErrVersion: a snapshot from a newer (or unknown) format version.
	ErrVersion = fmt.Errorf("%w: unsupported format version", ErrSnapshot)
	// ErrTruncated: the stream ended before the declared payload did.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrSnapshot)
	// ErrChecksum: the payload bytes do not match their CRC.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch (corrupt file)", ErrSnapshot)
	// ErrCorrupt: the checksum held but a field is structurally invalid
	// (also the verdict for a truncation the CRC happens to cover).
	ErrCorrupt = fmt.Errorf("%w: corrupt payload", ErrSnapshot)
)

// Provenance records where a snapshot's dataset came from, pinning
// experiments to exact bytes: a generator name + seed reproduces the
// raw data, Source names an external file, and Normalized records
// whether min-max rescaling ran before preprocessing.
type Provenance struct {
	// Generator is the datagen.ByName generator ("" when the dataset
	// was loaded from a file rather than generated).
	Generator string
	// Seed is the generation seed (meaningful with Generator).
	Seed int64
	// Source is the path the dataset was loaded from ("" when
	// generated).
	Source string
	// Normalized records that columns were min-max rescaled to [0,1]
	// before the snapshot was taken.
	Normalized bool
	// CreatedUnix is when the dataset was read or generated (Unix
	// seconds). A re-saved snapshot keeps it.
	CreatedUnix int64
}

// ColumnRange is one dimension's raw-data [Min, Max] span from before
// min-max normalization. A snapshot of a normalized dataset carries
// one per column so a restored server can rebuild the point transform
// that maps raw-unit ad-hoc query vectors into the dataset's [0,1]
// coordinate space — without it, every client vector would look
// maximally distant from the normalized data after a restart.
type ColumnRange struct {
	Min, Max float64
}

// Normalize min-max scales ds to [0,1] column by column, keeping its
// column names, and returns the scaled copy together with the raw
// range of every column: the NormStats a snapshot of the scaled
// dataset records, and what ScalePoint needs to map raw-unit query
// points onto it.
func Normalize(ds *vector.Dataset) (*vector.Dataset, []ColumnRange, error) {
	norm, stats := ds.MinMaxNormalize()
	if ds.Columns() != nil {
		if err := norm.SetColumns(ds.Columns()); err != nil {
			return nil, nil, err
		}
	}
	ranges := make([]ColumnRange, len(stats))
	for j, st := range stats {
		ranges[j] = ColumnRange{Min: st.Min, Max: st.Max}
	}
	return norm, ranges, nil
}

// ScalePoint maps a raw-unit point into the coordinates of a dataset
// normalized with the ranges norm, with the same arithmetic Normalize
// applied to the dataset's own rows (a constant column maps to 0). It
// returns a new slice and leaves p untouched.
func ScalePoint(norm []ColumnRange, p []float64) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		if j < len(norm) {
			if span := norm[j].Max - norm[j].Min; span > 0 {
				out[j] = (v - norm[j].Min) / span
			}
		}
	}
	return out
}

// Snapshot is the in-memory form of one snapshot file.
type Snapshot struct {
	// Name is the dataset's registry name (also the conventional file
	// stem: <name>.snap).
	Name string
	// Provenance pins the dataset's origin.
	Provenance Provenance
	// Dataset is the (possibly normalized) data exactly as served.
	Dataset *vector.Dataset
	// Config is the full miner parameterisation, shard layout included.
	// Meaningful whenever State is present; for dataset-only snapshots
	// it is the zero Config.
	Config core.Config
	// State is the preprocessed outcome (resolved threshold + priors);
	// nil for dataset-only snapshots.
	State *core.State
	// Index is the serialized k-NN index; nil for dataset-only
	// snapshots (and empty for linear-scan configurations).
	Index *core.IndexSnapshot
	// NormStats is the per-column raw [Min, Max] behind a min-max
	// normalized dataset (len Dim), empty when the dataset is served
	// in raw units. Restorers use it to rebuild the ad-hoc-point
	// transform.
	NormStats []ColumnRange
}

// HasState reports whether the snapshot carries preprocessed state —
// i.e. whether Restore can produce a ready miner.
func (s *Snapshot) HasState() bool { return s != nil && s.State != nil }

// Capture snapshots a preprocessed miner together with its dataset.
// It fails if the miner has not run Preprocess (or ImportState): a
// snapshot exists to skip that work, so capturing before it happened
// would persist a lie.
func Capture(name string, prov Provenance, m *core.Miner) (*Snapshot, error) {
	if m == nil {
		return nil, fmt.Errorf("snapshot: nil miner")
	}
	state, err := m.ExportState()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	idx, err := m.ExportIndex()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &Snapshot{
		Name:       name,
		Provenance: prov,
		Dataset:    m.Dataset(),
		Config:     m.Config(),
		State:      state,
		Index:      idx,
	}, nil
}

// FromDataset builds a dataset-only snapshot (no preprocessed state,
// no index): the in-memory form of a CSV or a generated dataset, and
// the hosgen file form. A zero prov.CreatedUnix is stamped with the
// current time.
func FromDataset(name string, prov Provenance, ds *vector.Dataset) (*Snapshot, error) {
	if ds == nil {
		return nil, fmt.Errorf("snapshot: nil dataset")
	}
	if prov.CreatedUnix == 0 {
		prov.CreatedUnix = time.Now().Unix()
	}
	return &Snapshot{Name: name, Provenance: prov, Dataset: ds}, nil
}

// Generate runs the datagen generator gen and returns its dataset as a
// dataset-only snapshot whose provenance records the generator and
// its seed.
func Generate(name, gen string, cfg datagen.NamedConfig) (*Snapshot, error) {
	ds, _, err := datagen.ByName(gen, cfg)
	if err != nil {
		return nil, err
	}
	return FromDataset(name, Provenance{Generator: gen, Seed: cfg.Seed}, ds)
}

// Normalize min-max scales a dataset-only snapshot in place with the
// Normalize function, and records the raw ranges in NormStats and the
// fact in Provenance.Normalized. It refuses a full snapshot, whose
// miner was preprocessed over the stored coordinates, and an already
// normalized one: scaling it again would record the ranges of scaled
// data, not raw ones.
func (s *Snapshot) Normalize() error {
	switch {
	case s.HasState():
		return fmt.Errorf("snapshot %q supplies the miner configuration; normalization conflicts with it", s.Name)
	case s.Provenance.Normalized || s.NormStats != nil:
		return fmt.Errorf("snapshot %q is already normalized; normalizing it again conflicts with its recorded ranges", s.Name)
	}
	ds, ranges, err := Normalize(s.Dataset)
	if err != nil {
		return err
	}
	s.Dataset, s.NormStats, s.Provenance.Normalized = ds, ranges, true
	return nil
}

// minerParams names, as the front doors spell them (hosminer and
// hosserve flags, POST /datasets/load fields), the miner parameters a
// full snapshot fixes.
var minerParams = []string{"k", "t", "tq", "samples", "seed", "backend", "shards", "partitioner", "policy"}

// Miner turns the snapshot into a preprocessed miner; it is the one
// opener of hosminer, hosserve and the server. set names the
// parameters the caller gave explicitly. A full snapshot fixes every
// miner parameter, so each of minerParams in set is refused as a
// conflict, and the snapshot is restored (Restore). A dataset-only
// snapshot is mined under cfg, with the sample size clamped to the
// rows, and preprocessed.
func (s *Snapshot) Miner(cfg core.Config, set []string) (*core.Miner, error) {
	if s.HasState() {
		for _, name := range set {
			if slices.Contains(minerParams, name) {
				return nil, fmt.Errorf("snapshot %q supplies the miner configuration; %q conflicts with it", s.Name, name)
			}
		}
		return s.Restore()
	}
	cfg.ClampSampleSize(s.Dataset.N())
	m, err := core.NewMiner(s.Dataset, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	return m, nil
}

// Restore reconstructs a ready-to-serve miner: the index is decoded
// rather than rebuilt and the state imported rather than relearned,
// so no OD evaluation or tree insertion runs. It fails on
// dataset-only snapshots, which Miner mines instead.
func (s *Snapshot) Restore() (*core.Miner, error) {
	if !s.HasState() {
		return nil, fmt.Errorf("snapshot: %q is dataset-only (no preprocessed state); configure a miner over its dataset instead", s.Name)
	}
	m, err := core.NewMinerWithIndex(s.Dataset, s.Config, s.Index)
	if err != nil {
		return nil, fmt.Errorf("snapshot: restoring %q: %w", s.Name, err)
	}
	if err := m.ImportState(s.State); err != nil {
		return nil, fmt.Errorf("snapshot: restoring %q: %w", s.Name, err)
	}
	return m, nil
}

// Write serializes the snapshot: header, CRC, payload.
func Write(w io.Writer, s *Snapshot) error {
	b, err := encode(s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// headerLen is the fixed header: magic(8) + version(4) + payload
// length(8) + payload CRC(4).
const headerLen = 24

// Read parses a snapshot stream, verifying magic, version, length and
// checksum before decoding a single payload field.
func Read(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	h := binfmt.NewDecoder(hdr[:], ErrCorrupt)
	if [8]byte(h.Raw(len(magic))) != magic {
		return nil, ErrBadMagic
	}
	if v := h.U32(); v != Version {
		return nil, fmt.Errorf("%w: have %d, support %d", ErrVersion, v, Version)
	}
	length := h.U64()
	want := h.U32()
	// Grow-as-you-read: never pre-allocate the declared length, which
	// an adversarial header could set to anything.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) != length {
		return nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrChecksum
	}
	return decodePayload(payload)
}

// SaveFile writes the snapshot to path atomically and durably through
// binfmt.WriteFile: a crash mid-write never leaves a half-snapshot
// where a warm start would find it, and once SaveFile returns the new
// name survives power loss — so a sibling WAL bound to the new file's
// CRC is never rejected as stale on restart (see internal/wal's
// ordering contract).
func SaveFile(path string, s *Snapshot) error {
	b, err := encode(s)
	if err != nil {
		return err
	}
	return binfmt.WriteFile(path, b)
}

// LoadFile reads a snapshot file.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ---- payload encoding ----

// Section presence flags.
const (
	flagState = 1 << 0
	flagIndex = 1 << 1
	flagNorm  = 1 << 2
)

// encode renders the whole file: the header, then the payload it
// checksums.
func encode(s *Snapshot) ([]byte, error) {
	if s == nil || s.Dataset == nil {
		return nil, fmt.Errorf("snapshot: nothing to write (nil snapshot or dataset)")
	}
	if s.State != nil {
		// Guard invariants the reader will enforce, so a bad capture
		// fails at write time (attributable) rather than at some future
		// boot (not).
		if err := s.Config.Validate(s.Dataset); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	var e binfmt.Encoder
	e.Raw(magic[:])
	e.U32(Version)
	lenAt := e.Len()
	e.U64(0)
	e.U32(0)
	encodePayload(&e, s)
	payload := e.Bytes()[headerLen:]
	e.PutU64(lenAt, uint64(len(payload)))
	e.PutU32(lenAt+8, crc32.ChecksumIEEE(payload))
	return e.Bytes(), nil
}

func encodePayload(e *binfmt.Encoder, s *Snapshot) {
	e.Str(s.Name)
	// Provenance.
	e.Str(s.Provenance.Generator)
	e.I64(s.Provenance.Seed)
	e.Str(s.Provenance.Source)
	e.Bool(s.Provenance.Normalized)
	e.I64(s.Provenance.CreatedUnix)
	// Dataset.
	ds := s.Dataset
	e.U32(uint32(ds.N()))
	e.U32(uint32(ds.Dim()))
	cols := ds.Columns()
	e.Bool(cols != nil)
	for _, c := range cols {
		e.Str(c)
	}
	e.Floats(ds.Slab())
	// Sections.
	var flags uint8
	if s.State != nil {
		flags |= flagState
	}
	if s.Index != nil {
		flags |= flagIndex
	}
	if len(s.NormStats) > 0 {
		flags |= flagNorm
	}
	e.U8(flags)
	if s.State != nil {
		encodeConfig(e, s.Config)
		e.F64(s.State.Threshold)
		e.Bool(s.State.Learned)
		e.F64s(s.State.PUp)
		e.F64s(s.State.PDown)
	}
	if s.Index != nil {
		e.Blob(s.Index.Tree)
		e.Bool(s.Index.ShardTrees != nil)
		if s.Index.ShardTrees != nil {
			e.U32(uint32(len(s.Index.ShardTrees)))
			for _, b := range s.Index.ShardTrees {
				e.Blob(b)
			}
		}
	}
	if len(s.NormStats) > 0 {
		e.U32(uint32(len(s.NormStats)))
		for _, c := range s.NormStats {
			e.F64(c.Min)
			e.F64(c.Max)
		}
	}
}

func encodeConfig(e *binfmt.Encoder, c core.Config) {
	e.U32(uint32(c.K))
	e.F64(c.T)
	e.F64(c.TQuantile)
	e.U8(uint8(c.Metric))
	e.U32(uint32(c.SampleSize))
	e.I64(c.Seed)
	e.U8(uint8(c.Policy))
	e.U8(uint8(c.Backend))
	e.U32(uint32(c.Shards))
	e.U8(uint8(c.Partitioner))
}

// decodePayload parses a checksummed payload. Every read is bounded by
// the bytes that remain, so no header value can size an allocation;
// every failure is ErrCorrupt, since the CRC already passed and a
// short field is structural corruption, not truncation.
func decodePayload(payload []byte) (*Snapshot, error) {
	d := binfmt.NewDecoder(payload, ErrCorrupt)
	s := &Snapshot{Name: d.Str()}
	s.Provenance = Provenance{
		Generator:   d.Str(),
		Seed:        d.I64(),
		Source:      d.Str(),
		Normalized:  d.Bool(),
		CreatedUnix: d.I64(),
	}

	n, dim := int(d.U32()), int(d.U32())
	if d.Err() == nil && (dim < 1 || dim > subspace.MaxDim) {
		d.Failf("dimensionality %d out of [1,%d]", dim, subspace.MaxDim)
	}
	var cols []string
	if d.Bool() {
		cols = make([]string, dim)
		for i := range cols {
			cols[i] = d.Str()
		}
	}
	flat := d.Floats(n * dim)
	if err := d.Err(); err != nil {
		return nil, err
	}
	// The same finiteness contract dataio enforces on CSV: mining over
	// NaN/±Inf is undefined (every distance comparison involving NaN
	// is false), and snapshots are operator-provided files — a crafted
	// or re-checksummed one must not smuggle poison into the serving
	// path.
	for i, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite coordinate %v at row %d col %d", ErrCorrupt, v, i/dim, i%dim)
		}
	}
	ds, err := vector.NewDataset(flat, n, dim)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if cols != nil {
		if err := ds.SetColumns(cols); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	s.Dataset = ds

	flags := d.U8()
	if flags&^(flagState|flagIndex|flagNorm) != 0 {
		d.Failf("unknown section flags %#x", flags)
	}
	if flags&flagState != 0 {
		s.Config = decodeConfig(d)
		s.State = &core.State{
			Version:   core.StateVersion,
			Dim:       dim,
			K:         s.Config.K,
			Metric:    s.Config.Metric.String(),
			Threshold: d.F64(),
			Learned:   d.Bool(),
			PUp:       d.F64s(),
			PDown:     d.F64s(),
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		if err := s.Config.Validate(ds); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if flags&flagIndex != 0 {
		s.Index = &core.IndexSnapshot{Tree: d.Blob()}
		if d.Bool() {
			// Each encoded tree carries at least its u32 length.
			s.Index.ShardTrees = make([][]byte, d.Count(4))
			for i := range s.Index.ShardTrees {
				s.Index.ShardTrees[i] = d.Blob()
			}
		}
	}
	if flags&flagNorm != 0 {
		if count := d.Count(16); d.Err() == nil && count != dim {
			d.Failf("%d normalization ranges for %d dims", count, dim)
		}
		if d.Err() == nil {
			s.NormStats = make([]ColumnRange, dim)
			for i := range s.NormStats {
				c := ColumnRange{Min: d.F64(), Max: d.F64()}
				if math.IsNaN(c.Min) || math.IsInf(c.Min, 0) || math.IsNaN(c.Max) || math.IsInf(c.Max, 0) || c.Max < c.Min {
					d.Failf("invalid normalization range [%v,%v] for dim %d", c.Min, c.Max, i)
				}
				s.NormStats[i] = c
			}
		}
	}
	if d.Remaining() != 0 {
		d.Failf("%d trailing bytes", d.Remaining())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeConfig reads the miner configuration, failing d on an enum
// outside what Config.Validate covers (it assumes values produced by
// parsers, not by a file).
func decodeConfig(d *binfmt.Decoder) core.Config {
	cfg := core.Config{
		K:           int(d.U32()),
		T:           d.F64(),
		TQuantile:   d.F64(),
		Metric:      vector.Metric(d.U8()),
		SampleSize:  int(d.U32()),
		Seed:        d.I64(),
		Policy:      core.Policy(d.U8()),
		Backend:     core.Backend(d.U8()),
		Shards:      int(d.U32()),
		Partitioner: shard.Partitioner(d.U8()),
	}
	if d.Err() == nil && (!cfg.Metric.Valid() || !cfg.Policy.Valid() || cfg.Backend > core.BackendXTree || !cfg.Partitioner.Valid()) {
		d.Failf("invalid enum in config")
	}
	return cfg
}
