// Package wal is the write-ahead delta log that makes live datasets
// durable: a base snapshot (internal/snapshot's `.snap` file) plus a
// sibling `.wal` file of CRC-checked append/delete records. The snap
// format is deliberately untouched — its decoder rejects trailing
// bytes, so deltas layer beside it, never inside it.
//
// Binding and layout. A log's header names the exact base it extends:
// BaseCRC is the CRC-32 (IEEE) of the entire base snapshot file. A
// compaction that folds the deltas into a fresh snapshot changes those
// bytes, so any stale log left behind by a crash mid-compaction fails
// the binding check and is ignored — the data it carried is already in
// the new base. The header also carries the dataset's row-identity
// state (the stable row IDs of the base rows and the next ID to
// assign), so delete-by-ID ranges stay meaningful across restarts and
// compactions.
//
// Integrity. Every record carries its payload length and CRC; the
// header carries its own CRC. Replay stops at the first record that
// fails to frame or checksum — a torn tail from a crash mid-write
// loses at most the final record, and Open truncates the file back to
// the last valid record before appending further. The decoder never
// panics on arbitrary bytes (FuzzWALReplay enforces this) and bounds
// every allocation by the remaining input.
//
// Durability ordering contract. Creating or rotating a log (and the
// base snapshot it binds to) goes through binfmt.WriteFile: write a
// temp file beside the target, fsync it, rename it over the target,
// fsync the directory. The final fsync is load-bearing: rename alone
// orders the data blocks, but the *name* lives in the directory inode,
// and on power loss an unsynced directory can forget the rename
// entirely — leaving a stale (or absent) file whose BaseCRC no longer
// matches. A caller that replaces the base snapshot must drop the old
// log whether or not its successor opens: the old log is bound to the
// replaced base, so nothing appended to it would ever replay.
//
// Sync policy. When each appended record reaches stable storage is a
// SyncPolicy decision: SyncBatch fsyncs at the caller's per-group-commit
// Commit(), before the mutation is acknowledged; SyncInterval coalesces
// fsyncs in time (acknowledged mutations inside the window can be
// lost on power failure — the documented trade). A whole drained
// mutation batch is journaled as one RecordBatch frame (one CRC, one
// fsync), which is what makes group commit cheaper than N single-row
// records.
//
// All integers are little-endian, encoded by internal/binfmt like the
// snapshot and X-tree formats.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/binfmt"
)

// Magic opens every WAL file.
const Magic = "HOSWAL01"

// Version is the current format version. RecordBatch (type 3) is an
// additive record type: version stays 1 because old records still
// decode identically, and an old reader treats an unknown type as a
// torn tail rather than misreading it.
const Version = 1

// Typed errors, wrapped so callers can errors.Is.
var (
	// ErrWAL is the root of every error this package returns.
	ErrWAL = errors.New("wal: invalid log")
	// ErrBadMagic: the file does not start with Magic.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrWAL)
	// ErrVersion: a future (or garbage) format version.
	ErrVersion = fmt.Errorf("%w: unsupported version", ErrWAL)
	// ErrHeader: the header failed to frame or checksum.
	ErrHeader = fmt.Errorf("%w: corrupt header", ErrWAL)
	// ErrBaseMismatch is for callers to report (via errors.Is) when a
	// log's BaseCRC does not match the snapshot it sits beside — a
	// stale log from before a compaction.
	ErrBaseMismatch = fmt.Errorf("%w: base snapshot mismatch", ErrWAL)
)

// RecordType discriminates delta records.
type RecordType uint8

const (
	// RecordAppend adds rows to the end of the dataset.
	RecordAppend RecordType = 1
	// RecordDelete removes the rows whose stable IDs fall in
	// [FromID, ToID).
	RecordDelete RecordType = 2
	// RecordBatch is a group commit: one framed record carrying an
	// ingest stamp plus any number of append/delete sub-records, all
	// covered by a single CRC and (typically) a single fsync. Replay
	// flattens it — Replayed.Records never contains a RecordBatch.
	RecordBatch RecordType = 3
)

// FileCRC32 returns the CRC-32 (IEEE) of the file's bytes, streamed:
// the base binding key, Header.BaseCRC, of the snapshot at path.
func FileCRC32(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// Header binds a log to its base snapshot and carries row identity.
type Header struct {
	// Dim is the dataset dimensionality (validates append records).
	Dim int
	// BaseCRC is the CRC-32 (IEEE) of the base snapshot file bytes.
	BaseCRC uint32
	// NextID is the next stable row ID to assign.
	NextID int64
	// BaseIDs are the stable IDs of the base snapshot's rows, in row
	// order. Contiguous 0..N-1 right after a dataset first goes live;
	// an arbitrary ascending subset after deletions and compactions.
	BaseIDs []int64
}

// Record is one replayed delta. Exactly the fields of its Type are
// meaningful.
type Record struct {
	Type RecordType
	// Append: the rows added, and the stable ID assigned to the first
	// one (the rest follow contiguously).
	Rows    [][]float64
	FirstID int64
	// Delete: stable IDs in [FromID, ToID) were removed.
	FromID int64
	ToID   int64
	// Stamp is the ingest time (Unix nanoseconds) carried by the batch
	// frame this record arrived in; zero for legacy single records.
	// Retention treats zero as "stamp at replay time" — conservative,
	// never expiring a row early.
	Stamp int64
}

// SyncMode selects when appended records are fsync'd.
type SyncMode uint8

const (
	// SyncBatch (the default, zero value) defers durability to the
	// caller's Commit() — one fsync per drained mutation batch, before
	// the batch is acknowledged. AppendBatch is the log's only writer
	// and the server commits after every batch, so a per-frame fsync
	// would be the same fsync: "always" is another spelling of batch.
	SyncBatch SyncMode = iota
	// SyncInterval fsyncs at most once per Interval: Commit() only
	// touches the disk when the window has elapsed. Acknowledged
	// mutations inside the window can be lost on power failure.
	SyncInterval
)

// SyncPolicy is when appended records reach stable storage. The zero
// value is SyncBatch.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration // only meaningful for SyncInterval
}

// ParseSyncPolicy parses the -wal-sync flag grammar:
// "batch" | "always" | "interval=<duration>". "always" and the legacy
// boolean spellings "true"/"false" all mean batch, as does empty.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "batch", "always", "true", "false":
		return SyncPolicy{Mode: SyncBatch}, nil
	}
	if rest, ok := strings.CutPrefix(s, "interval="); ok {
		d, err := time.ParseDuration(rest)
		if err != nil {
			return SyncPolicy{}, fmt.Errorf("wal: sync policy %q: %v", s, err)
		}
		if d <= 0 {
			return SyncPolicy{}, fmt.Errorf("wal: sync policy %q: interval must be positive", s)
		}
		return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
	}
	return SyncPolicy{}, fmt.Errorf("wal: sync policy %q: want batch, always or interval=<duration>", s)
}

// String renders the policy in the flag grammar.
func (p SyncPolicy) String() string {
	if p.Mode == SyncInterval {
		return "interval=" + p.Interval.String()
	}
	return "batch"
}

// Fixed header prefix: magic + version(4) + dim(4) + baseCRC(4) +
// nextID(8) + idCount(4). The ID array and the header CRC(4) follow.
const headerFixed = len(Magic) + 4 + 4 + 4 + 8 + 4

// Per-record frame: type(1) + payloadLen(4) + payloadCRC(4).
const recordFrame = 1 + 4 + 4

// Per-sub-record frame inside a batch payload: type(1) + len(4). No
// per-sub CRC — the batch frame's single CRC covers everything.
const subFrame = 1 + 4

// errTorn is the class of every record-level decode failure: Replay
// reports it as a torn tail, never as an error.
var errTorn = errors.New("wal: torn record")

// encodeHeader renders the header block, CRC included.
func encodeHeader(h Header) []byte {
	var e binfmt.Encoder
	e.Grow(headerFixed + len(h.BaseIDs)*8 + 4)
	e.Raw([]byte(Magic))
	e.U32(Version)
	e.U32(uint32(h.Dim))
	e.U32(h.BaseCRC)
	e.I64(h.NextID)
	e.U32(uint32(len(h.BaseIDs)))
	for _, id := range h.BaseIDs {
		e.I64(id)
	}
	e.U32(crc32.ChecksumIEEE(e.Bytes()[len(Magic):]))
	return e.Bytes()
}

// decodeHeader parses and verifies the header block at the start of
// data, returning the header and the number of bytes it occupied.
func decodeHeader(data []byte) (Header, int, error) {
	var h Header
	if len(data) < headerFixed {
		return h, 0, fmt.Errorf("%w: %d bytes, need %d", ErrHeader, len(data), headerFixed)
	}
	d := binfmt.NewDecoder(data, ErrHeader)
	if string(d.Raw(len(Magic))) != Magic {
		return h, 0, ErrBadMagic
	}
	if v := d.U32(); v != Version {
		return h, 0, fmt.Errorf("%w: %d (have %d)", ErrVersion, v, Version)
	}
	dim := d.U32()
	h.BaseCRC = d.U32()
	h.NextID = d.I64()
	if dim == 0 || dim > 1<<20 {
		return h, 0, fmt.Errorf("%w: dimensionality %d", ErrHeader, dim)
	}
	h.Dim = int(dim)
	h.BaseIDs = make([]int64, d.Count(8))
	for i := range h.BaseIDs {
		h.BaseIDs[i] = d.I64()
	}
	sum := crc32.ChecksumIEEE(data[len(Magic):d.Offset()])
	if d.U32() != sum {
		d.Failf("checksum mismatch")
	}
	if h.NextID < 0 {
		d.Failf("negative next ID")
	}
	prev := int64(-1)
	for _, id := range h.BaseIDs {
		if id <= prev || id >= h.NextID {
			d.Failf("ID table not ascending below next ID")
			break
		}
		prev = id
	}
	return h, d.Offset(), d.Err()
}

// encodePayload appends rec's payload: for an append count(4) +
// firstID(8) + rows, for a delete fromID(8) + toID(8). Rows must
// already be validated (width and finiteness).
func encodePayload(e *binfmt.Encoder, rec Record) {
	if rec.Type == RecordAppend {
		e.U32(uint32(len(rec.Rows)))
		e.I64(rec.FirstID)
		for _, row := range rec.Rows {
			e.Floats(row)
		}
		return
	}
	e.I64(rec.FromID)
	e.I64(rec.ToID)
}

// payloadLen is the length encodePayload gives rec's payload.
func payloadLen(rec Record, dim int) int {
	if rec.Type == RecordAppend {
		return 12 + len(rec.Rows)*dim*8
	}
	return 16
}

// validateAppend is the writer-side twin of decodePayload's append
// checks.
func validateAppend(firstID int64, rows [][]float64, dim int) error {
	if len(rows) == 0 {
		return fmt.Errorf("wal: append: no rows")
	}
	if firstID < 0 {
		return fmt.Errorf("wal: append: negative first ID")
	}
	for i, row := range rows {
		if len(row) != dim {
			return fmt.Errorf("wal: append: row %d has %d values, want %d", i, len(row), dim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("wal: append: row %d column %d is not finite", i, j)
			}
		}
	}
	return nil
}

// decodePayload decodes one record payload of type typ — all of p —
// and appends what it holds to out: the append or delete, stamped
// with stamp, or a batch frame's sub-records, each stamped with the
// frame's ingest time. Any framing, identity or finiteness violation
// fails p; the caller then discards whatever was appended.
func decodePayload(p *binfmt.Decoder, typ RecordType, dim int, stamp int64, out []Record) []Record {
	switch typ {
	case RecordAppend:
		count := p.Count(dim * 8)
		first := p.I64()
		if count == 0 || first < 0 {
			p.Failf("append of %d rows from ID %d", count, first)
		}
		flat := p.Floats(count * dim)
		for _, v := range flat {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				p.Failf("non-finite value")
				break
			}
		}
		if p.Err() != nil {
			return out
		}
		rows := make([][]float64, count)
		for i := range rows {
			rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
		out = append(out, Record{Type: RecordAppend, Rows: rows, FirstID: first, Stamp: stamp})
	case RecordDelete:
		rec := Record{Type: RecordDelete, FromID: p.I64(), ToID: p.I64(), Stamp: stamp}
		if rec.FromID < 0 || rec.ToID < rec.FromID {
			p.Failf("delete range [%d,%d)", rec.FromID, rec.ToID)
		}
		out = append(out, rec)
	case RecordBatch:
		stamp := p.I64()
		// Each sub-record needs at least its frame; a count beyond
		// that is garbage.
		count := p.Count(subFrame)
		if stamp < 0 || count == 0 {
			p.Failf("batch of %d records stamped %d", count, stamp)
		}
		for i := 0; i < count && p.Err() == nil; i++ {
			// Batches never nest, and an unknown sub-type poisons the
			// whole frame (its CRC passed, so this is a writer bug or
			// a future format — either way, stop trusting it).
			typ := RecordType(p.U8())
			sub := binfmt.NewDecoder(p.Raw(int(p.U32())), errTorn)
			if typ == RecordBatch {
				sub.Failf("nested batch")
			}
			out = decodePayload(sub, typ, dim, stamp, out)
			if err := sub.Err(); err != nil {
				p.Failf("batch record %d: %v", i, err)
			}
		}
	default:
		p.Failf("unknown record type %d", typ)
	}
	if p.Remaining() != 0 {
		p.Failf("%d trailing payload bytes", p.Remaining())
	}
	return out
}

// Replayed is the result of decoding a log image.
type Replayed struct {
	Header Header
	// Records are the flattened deltas in journal order: batch frames
	// are expanded into their stamped sub-records.
	Records []Record
	// Frames is how many on-disk record frames the valid prefix holds
	// (a batch frame counts once however many sub-records it carries).
	Frames int64
	// ValidLen is the byte length of the valid prefix (header plus
	// every intact record); Torn reports whether bytes beyond it were
	// discarded (a truncated or corrupt trailing record).
	ValidLen int64
	Torn     bool
}

// Replay decodes a complete WAL image. Header-level corruption is an
// error (nothing can be trusted); record-level corruption is not —
// decoding stops at the last valid record and Torn is set, which is
// the crash-mid-append recovery story. Replay never panics on
// arbitrary input.
func Replay(data []byte) (*Replayed, error) {
	h, n, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	out := &Replayed{Header: h, ValidLen: int64(n)}
	d := binfmt.NewDecoder(data[n:], errTorn)
	for d.Remaining() > 0 {
		typ := RecordType(d.U8())
		size := d.U32()
		sum := d.U32()
		payload := d.Raw(int(size))
		if d.Err() == nil && crc32.ChecksumIEEE(payload) != sum {
			d.Failf("checksum mismatch")
		}
		if d.Err() == nil {
			p := binfmt.NewDecoder(payload, errTorn)
			if recs := decodePayload(p, typ, h.Dim, 0, out.Records); p.Err() == nil {
				out.Records = recs
			} else {
				d.Failf("%v", p.Err())
			}
		}
		if d.Err() != nil {
			out.Torn = true
			break
		}
		out.Frames++
		out.ValidLen = int64(n + d.Offset())
	}
	return out, nil
}

// ReplayFile reads and decodes path.
func ReplayFile(path string) (*Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Replay(data)
}

// Log is an open WAL accepting appends. Not safe for concurrent use;
// the serving layer serializes dataset mutations anyway.
type Log struct {
	f        *os.File
	path     string
	dim      int
	size     int64
	records  int64
	policy   SyncPolicy
	syncs    int64
	dirty    bool
	lastSync time.Time
}

// Create atomically writes a fresh log containing only the header and
// opens it for appending. The header goes down through
// binfmt.WriteFile — temp file beside path, fsync, rename, directory
// fsync — so a crash at any point leaves either no log or a complete,
// durably named one.
func Create(path string, h Header, policy SyncPolicy) (*Log, error) {
	if h.Dim < 1 {
		return nil, fmt.Errorf("wal: create: dimensionality %d", h.Dim)
	}
	buf := encodeHeader(h)
	if err := binfmt.WriteFile(path, buf); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, path: path, dim: h.Dim, size: int64(len(buf)), policy: policy, lastSync: time.Now()}, nil
}

// Open validates an existing log, replays it, truncates any torn tail
// (so the next append starts on a clean boundary) and returns the log
// positioned for appending plus everything replayed.
func Open(path string, policy SyncPolicy) (*Log, *Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Replay(data)
	if err != nil {
		return nil, nil, err
	}
	if rep.Torn {
		if err := os.Truncate(path, rep.ValidLen); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Log{
		f:        f,
		path:     path,
		dim:      rep.Header.Dim,
		size:     rep.ValidLen,
		records:  rep.Frames,
		policy:   policy,
		lastSync: time.Now(),
	}, rep, nil
}

// Path returns the file path of the log.
func (l *Log) Path() string { return l.path }

// Size returns the current byte length of the valid log.
func (l *Log) Size() int64 { return l.size }

// Records returns how many record frames the log holds (replayed +
// appended); a batch frame counts once.
func (l *Log) Records() int64 { return l.records }

// Syncs returns how many fsyncs this log has issued since it was
// opened — the numerator of the bench lane's fsyncs-per-row metric.
func (l *Log) Syncs() int64 { return l.syncs }

// syncNow flushes to stable storage and advances the sync clock.
func (l *Log) syncNow() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// write appends one encoded frame to the file; Commit syncs it.
func (l *Log) write(frame []byte) error {
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	l.size += int64(len(frame))
	l.records++
	l.dirty = true
	return nil
}

// Commit is the group-commit durability point, called once per
// drained mutation batch after its records are written. SyncBatch
// fsyncs now; under SyncInterval the fsync happens only when the
// window has elapsed. A clean log is not synced.
func (l *Log) Commit() error {
	if !l.dirty || (l.policy.Mode == SyncInterval && time.Since(l.lastSync) < l.policy.Interval) {
		return nil
	}
	return l.syncNow()
}

// AppendBatch journals a drained mutation batch — appends, deletes or
// both — as one RecordBatch frame: the ingest stamp (Unix nanoseconds,
// must be non-negative) plus each record's payload, under a single
// CRC. It is the log's only writer. Only RecordAppend and RecordDelete
// records are accepted; every one is validated with the rules replay
// applies before any bytes are written, so a bad entry poisons
// nothing.
func (l *Log) AppendBatch(stamp int64, recs []Record) error {
	if stamp < 0 {
		return fmt.Errorf("wal: batch: negative stamp")
	}
	if len(recs) == 0 {
		return fmt.Errorf("wal: batch: no records")
	}
	for i, rec := range recs {
		switch rec.Type {
		case RecordAppend:
			if err := validateAppend(rec.FirstID, rec.Rows, l.dim); err != nil {
				return fmt.Errorf("wal: batch record %d: %w", i, err)
			}
		case RecordDelete:
			if rec.FromID < 0 || rec.ToID < rec.FromID {
				return fmt.Errorf("wal: batch record %d: invalid ID range [%d,%d)", i, rec.FromID, rec.ToID)
			}
		default:
			return fmt.Errorf("wal: batch record %d: type %d not batchable", i, rec.Type)
		}
	}
	// One frame in one buffer: the sizes are known up front, and only
	// the CRC is filled in after the payload it covers.
	size := 12
	for _, rec := range recs {
		size += subFrame + payloadLen(rec, l.dim)
	}
	var e binfmt.Encoder
	e.Grow(recordFrame + size)
	e.U8(uint8(RecordBatch))
	e.U32(uint32(size))
	crcAt := e.Len()
	e.U32(0)
	e.I64(stamp)
	e.U32(uint32(len(recs)))
	for _, rec := range recs {
		e.U8(uint8(rec.Type))
		e.U32(uint32(payloadLen(rec, l.dim)))
		encodePayload(&e, rec)
	}
	e.PutU32(crcAt, crc32.ChecksumIEEE(e.Bytes()[recordFrame:]))
	return l.write(e.Bytes())
}

// Sync flushes the log to stable storage unconditionally.
func (l *Log) Sync() error { return l.syncNow() }

// Close flushes any deferred writes and closes the underlying file.
// The log is unusable afterwards.
func (l *Log) Close() error {
	if l.dirty {
		if err := l.syncNow(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}
