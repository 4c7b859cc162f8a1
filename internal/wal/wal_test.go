package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func testHeader() Header {
	return Header{
		Dim:     3,
		BaseCRC: 0xdeadbeef,
		NextID:  5,
		BaseIDs: []int64{0, 1, 2, 3, 4},
	}
}

func mustCreate(t *testing.T, h Header) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.wal")
	l, err := Create(path, h, SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

// appendRows writes a legacy single-record append frame through the
// package's own encoder: the layout logs written before batch frames
// hold, which Replay must keep reading.
func appendRows(t *testing.T, l *Log, firstID int64, rows [][]float64) {
	t.Helper()
	if err := l.append(RecordAppend, encodeAppendPayload(firstID, rows, l.dim)); err != nil {
		t.Fatal(err)
	}
}

// appendDelete writes a legacy single-record delete frame.
func appendDelete(t *testing.T, l *Log, fromID, toID int64) {
	t.Helper()
	if err := l.append(RecordDelete, encodeDeletePayload(fromID, toID)); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip: create, append a mix of legacy single records,
// reopen, replay — everything comes back verbatim and the log stays
// appendable.
func TestRoundTrip(t *testing.T) {
	h := testHeader()
	l, path := mustCreate(t, h)
	rows1 := [][]float64{{1, 2, 3}, {4, 5, 6}}
	rows2 := [][]float64{{-0.5, math.MaxFloat64, 1e-300}}
	appendRows(t, l, 5, rows1)
	appendDelete(t, l, 1, 3)
	appendRows(t, l, 7, rows2)
	if l.Records() != 3 {
		t.Fatalf("records = %d, want 3", l.Records())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(path, SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep.Torn {
		t.Fatal("clean log reported torn")
	}
	if !reflect.DeepEqual(rep.Header, h) {
		t.Fatalf("header round-trip mismatch:\n%+v\n%+v", rep.Header, h)
	}
	want := []Record{
		{Type: RecordAppend, FirstID: 5, Rows: rows1},
		{Type: RecordDelete, FromID: 1, ToID: 3},
		{Type: RecordAppend, FirstID: 7, Rows: rows2},
	}
	if !reflect.DeepEqual(rep.Records, want) {
		t.Fatalf("records mismatch:\n%+v\n%+v", rep.Records, want)
	}
	if l2.Records() != 3 || l2.Size() != rep.ValidLen {
		t.Fatalf("reopened log state: records=%d size=%d validLen=%d",
			l2.Records(), l2.Size(), rep.ValidLen)
	}
	if l2.Path() != path {
		t.Fatalf("path = %q, want %q", l2.Path(), path)
	}

	// The reopened log accepts further appends that replay too.
	appendDelete(t, l2, 0, 1)
	rep2, err := replayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Records) != 4 || rep2.Records[3].Type != RecordDelete {
		t.Fatalf("append after reopen not replayed: %+v", rep2.Records)
	}
}

// TestTornTailTruncated: a crash mid-record loses only that record.
// Open reports what replayed, truncates the garbage, and the next
// append lands on a clean boundary.
func TestTornTailTruncated(t *testing.T) {
	cases := map[string]struct {
		mangle  func([]byte) []byte
		survive int // records expected to replay
	}{
		// Half a record frame: the second record is lost.
		"truncated_frame": {func(b []byte) []byte { return b[:len(b)-5] }, 1},
		// Full frame present, payload cut short.
		"truncated_payload": {func(b []byte) []byte { return b[:len(b)-1] }, 1},
		// Payload intact but a flipped bit breaks the CRC.
		"corrupt_payload": {func(b []byte) []byte {
			b[len(b)-3] ^= 0x40
			return b
		}, 1},
		// An unknown record type byte after both valid records: both
		// survive, the garbage is shed.
		"unknown_type": {func(b []byte) []byte {
			return append(b, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0)
		}, 2},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			h := testHeader()
			l, path := mustCreate(t, h)
			appendRows(t, l, 5, [][]float64{{1, 2, 3}})
			lens := []int64{l.Size()}
			appendRows(t, l, 6, [][]float64{{7, 8, 9}})
			lens = append(lens, l.Size())
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			l2, rep, err := Open(path, SyncPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Torn {
				t.Fatal("mangled tail not reported torn")
			}
			if len(rep.Records) != tc.survive || rep.Records[0].FirstID != 5 {
				t.Fatalf("replay did not stop at last valid record: %+v", rep.Records)
			}
			if rep.ValidLen != lens[tc.survive-1] {
				t.Fatalf("validLen = %d, want %d", rep.ValidLen, lens[tc.survive-1])
			}
			// The file was truncated back to the valid prefix and the
			// next append replays cleanly.
			appendDelete(t, l2, 2, 3)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			rep2, err := replayFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep2.Torn || len(rep2.Records) != tc.survive+1 {
				t.Fatalf("post-truncation log unclean: torn=%v records=%+v",
					rep2.Torn, rep2.Records)
			}
		})
	}
}

// TestHeaderCorruption: header-level damage is fatal, not torn.
func TestHeaderCorruption(t *testing.T) {
	h := testHeader()
	l, path := mustCreate(t, h)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		mangle func([]byte) []byte
		want   error
	}{
		"empty":     {func(b []byte) []byte { return nil }, ErrHeader},
		"bad_magic": {func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		"bad_version": {func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 99)
			return b
		}, ErrVersion},
		"zero_dim": {func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 0)
			return b
		}, ErrHeader},
		"bad_crc": {func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}, ErrHeader},
		"truncated_ids": {func(b []byte) []byte { return b[:len(b)-8] }, ErrHeader},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			data := append([]byte(nil), clean...)
			if _, err := Replay(tc.mangle(data)); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// Every header error is also an ErrWAL.
	for name, tc := range cases {
		data := append([]byte(nil), clean...)
		if _, err := Replay(tc.mangle(data)); !errors.Is(err, ErrWAL) {
			t.Fatalf("%s: err %v does not wrap ErrWAL", name, err)
		}
	}
}

// TestHeaderValidation: semantic header checks — IDs must ascend and
// sit below NextID.
func TestHeaderValidation(t *testing.T) {
	for name, h := range map[string]Header{
		"descending_ids":  {Dim: 2, NextID: 10, BaseIDs: []int64{3, 1}},
		"duplicate_ids":   {Dim: 2, NextID: 10, BaseIDs: []int64{1, 1}},
		"id_beyond_next":  {Dim: 2, NextID: 2, BaseIDs: []int64{1, 5}},
		"negative_nextid": {Dim: 2, NextID: -1},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Replay(encodeHeader(h)); !errors.Is(err, ErrHeader) {
				t.Fatalf("err = %v, want ErrHeader", err)
			}
		})
	}
	// An empty base (dataset born live) is fine.
	rep, err := Replay(encodeHeader(Header{Dim: 2, NextID: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Header.BaseIDs) != 0 {
		t.Fatal("empty ID table round-trip failed")
	}
}

// TestRecordValidation: non-finite floats and bogus ranges never make
// it into (or out of) the log.
func TestRecordValidation(t *testing.T) {
	l, _ := mustCreate(t, testHeader())
	defer l.Close()
	for name, rec := range map[string]Record{
		"empty append":         {Type: RecordAppend, FirstID: 5},
		"negative first ID":    {Type: RecordAppend, FirstID: -1, Rows: [][]float64{{1, 2, 3}}},
		"wrong-width row":      {Type: RecordAppend, FirstID: 5, Rows: [][]float64{{1, 2}}},
		"NaN":                  {Type: RecordAppend, FirstID: 5, Rows: [][]float64{{1, 2, math.NaN()}}},
		"-Inf":                 {Type: RecordAppend, FirstID: 5, Rows: [][]float64{{1, math.Inf(-1), 3}}},
		"inverted delete":      {Type: RecordDelete, FromID: 3, ToID: 2},
		"negative delete from": {Type: RecordDelete, FromID: -1, ToID: 2},
	} {
		if err := l.AppendBatch(1, []Record{rec}); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// A NaN smuggled past the writer is rejected on replay: craft the
	// record bytes directly.
	payload := make([]byte, 0, 12+8*3)
	payload = binary.LittleEndian.AppendUint32(payload, 1)
	payload = binary.LittleEndian.AppendUint64(payload, 5)
	for _, v := range []float64{1, math.NaN(), 3} {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
	}
	img := append(encodeHeader(testHeader()), encodeRecord(RecordAppend, payload)...)
	rep, err := Replay(img)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || len(rep.Records) != 0 {
		t.Fatal("NaN row replayed instead of stopping")
	}
}

// TestCreateRejectsBadDim pins writer-side header validation.
func TestCreateRejectsBadDim(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "x.wal"), Header{Dim: 0}, SyncPolicy{}); err == nil {
		t.Fatal("zero-dim header accepted")
	}
}

// TestSyncMode: a log opened under the "always" spelling works end to
// end and syncs once per Commit — the batch policy, since the log's
// only writer is AppendBatch and every batch is committed (the fsync
// itself is not observable, but the code path and the ledger are).
func TestSyncMode(t *testing.T) {
	always, err := ParseSyncPolicy("always")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.wal")
	l, err := Create(path, Header{Dim: 2, NextID: 0}, always)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, [][]float64{{1, 2}})
	if got := l.Syncs(); got != 0 {
		t.Fatalf("syncs after one append = %d, want 0 (Commit syncs)", got)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 1 {
		t.Fatalf("syncs after one commit = %d, want 1", got)
	}
	// A commit with nothing written since the last one is free.
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 1 {
		t.Fatalf("syncs after redundant commit = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rep, err := Open(path, always)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rep.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(rep.Records))
	}
	appendDelete(t, l2, 0, 1)
}

// TestBatchRoundTrip: one AppendBatch frame carrying mixed sub-records
// replays as flattened, stamped records, and costs one frame.
func TestBatchRoundTrip(t *testing.T) {
	h := testHeader()
	l, path := mustCreate(t, h)
	rows1 := [][]float64{{1, 2, 3}, {4, 5, 6}}
	rows2 := [][]float64{{-0.5, math.MaxFloat64, 1e-300}}
	const stamp = int64(1_700_000_000_000_000_000)
	batch := []Record{
		{Type: RecordAppend, FirstID: 5, Rows: rows1},
		{Type: RecordDelete, FromID: 1, ToID: 3},
		{Type: RecordAppend, FirstID: 7, Rows: rows2},
	}
	if err := l.AppendBatch(stamp, batch); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 1 {
		t.Fatalf("frames = %d, want 1 (one frame per batch)", l.Records())
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 1 {
		t.Fatalf("syncs = %d, want 1 (one fsync per batch commit)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(path, SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep.Torn {
		t.Fatal("clean batch log reported torn")
	}
	if rep.Frames != 1 {
		t.Fatalf("replayed frames = %d, want 1", rep.Frames)
	}
	want := []Record{
		{Type: RecordAppend, FirstID: 5, Rows: rows1, Stamp: stamp},
		{Type: RecordDelete, FromID: 1, ToID: 3, Stamp: stamp},
		{Type: RecordAppend, FirstID: 7, Rows: rows2, Stamp: stamp},
	}
	if !reflect.DeepEqual(rep.Records, want) {
		t.Fatalf("batch records mismatch:\n%+v\n%+v", rep.Records, want)
	}
	if l2.Records() != 1 {
		t.Fatalf("reopened frames = %d, want 1", l2.Records())
	}
	// Mixing batch frames and legacy single records is fine.
	appendDelete(t, l2, 0, 1)
	rep2, err := replayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Records) != 4 || rep2.Records[3].Stamp != 0 {
		t.Fatalf("mixed log replay wrong: %+v", rep2.Records)
	}
}

// TestBatchValidation: a bad entry anywhere in the batch rejects the
// whole call before any bytes are written.
func TestBatchValidation(t *testing.T) {
	l, _ := mustCreate(t, testHeader())
	defer l.Close()
	before := l.Size()
	good := Record{Type: RecordAppend, FirstID: 5, Rows: [][]float64{{1, 2, 3}}}
	cases := map[string]struct {
		stamp int64
		recs  []Record
	}{
		"empty":          {1, nil},
		"negative_stamp": {-1, []Record{good}},
		"nested_batch":   {1, []Record{good, {Type: RecordBatch}}},
		"bad_width":      {1, []Record{good, {Type: RecordAppend, FirstID: 9, Rows: [][]float64{{1}}}}},
		"nan_row":        {1, []Record{{Type: RecordAppend, FirstID: 9, Rows: [][]float64{{1, math.NaN(), 3}}}}},
		"inverted_range": {1, []Record{{Type: RecordDelete, FromID: 3, ToID: 2}}},
		"no_rows":        {1, []Record{{Type: RecordAppend, FirstID: 9}}},
	}
	for name, tc := range cases {
		if err := l.AppendBatch(tc.stamp, tc.recs); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if l.Size() != before || l.Records() != 0 {
		t.Fatalf("rejected batches left bytes behind: size=%d records=%d", l.Size(), l.Records())
	}
	// A corrupt sub-record poisons the whole frame on replay: craft a
	// batch whose second sub declares a bogus type.
	payload := make([]byte, 0, 64)
	payload = binary.LittleEndian.AppendUint64(payload, 1) // stamp
	payload = binary.LittleEndian.AppendUint32(payload, 2) // two subs
	del := make([]byte, 0, 16)
	del = binary.LittleEndian.AppendUint64(del, 0)
	del = binary.LittleEndian.AppendUint64(del, 2)
	payload = append(payload, byte(RecordDelete))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(del)))
	payload = append(payload, del...)
	payload = append(payload, 0x7f, 0, 0, 0, 0) // unknown sub type
	img := append(encodeHeader(testHeader()), encodeRecord(RecordBatch, payload)...)
	rep, err := Replay(img)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || len(rep.Records) != 0 {
		t.Fatalf("corrupt batch frame partially replayed: torn=%v records=%+v", rep.Torn, rep.Records)
	}
}

// TestParseSyncPolicy pins the -wal-sync grammar.
func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"":              {Mode: SyncBatch},
		"batch":         {Mode: SyncBatch},
		"false":         {Mode: SyncBatch},
		"always":        {Mode: SyncBatch},
		"true":          {Mode: SyncBatch},
		"interval=50ms": {Mode: SyncInterval, Interval: 50 * time.Millisecond},
		"interval=2s":   {Mode: SyncInterval, Interval: 2 * time.Second},
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Fatalf("%q: got %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{"nope", "interval=", "interval=abc", "interval=0", "interval=-1s"} {
		if _, err := ParseSyncPolicy(in); err == nil {
			t.Fatalf("%q: accepted", in)
		}
	}
	// String round-trips through the parser.
	for _, p := range []SyncPolicy{
		{Mode: SyncBatch},
		{Mode: SyncInterval, Interval: 250 * time.Millisecond},
	} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip %v: got %v err %v", p, back, err)
		}
	}
}

// TestSyncPolicyCommit pins when each policy actually touches the
// disk.
func TestSyncPolicyCommit(t *testing.T) {
	// Batch: appends defer, Commit syncs once, idle Commit is free.
	l, _ := mustCreate(t, testHeader())
	defer l.Close()
	appendRows(t, l, 5, [][]float64{{1, 2, 3}})
	appendDelete(t, l, 0, 1)
	if got := l.Syncs(); got != 0 {
		t.Fatalf("batch-mode appends synced eagerly: %d", got)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 1 {
		t.Fatalf("commit syncs = %d, want 1", got)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 1 {
		t.Fatalf("idle commit synced: %d", got)
	}

	// Interval: inside the window Commit defers; once the window
	// elapses the next Commit syncs. A 1ns window makes "elapsed"
	// deterministic without sleeping.
	path := filepath.Join(t.TempDir(), "iv.wal")
	li, err := Create(path, testHeader(), SyncPolicy{Mode: SyncInterval, Interval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	appendDelete(t, li, 0, 1)
	if err := li.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := li.Syncs(); got != 1 {
		t.Fatalf("interval commit past window syncs = %d, want 1", got)
	}
	lw, err := Create(filepath.Join(t.TempDir(), "iv2.wal"), testHeader(),
		SyncPolicy{Mode: SyncInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendDelete(t, lw, 0, 1)
	if err := lw.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := lw.Syncs(); got != 0 {
		t.Fatalf("interval commit inside window synced: %d", got)
	}
	// Close flushes the deferred write so nothing acknowledged is
	// still only in the page cache when the handle goes away.
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := lw.Syncs(); got != 1 {
		t.Fatalf("close did not flush dirty interval log: %d syncs", got)
	}
}

// TestBaseMismatchSentinel: ErrBaseMismatch wraps ErrWAL so callers
// report stale logs uniformly.
func TestBaseMismatchSentinel(t *testing.T) {
	if !errors.Is(ErrBaseMismatch, ErrWAL) {
		t.Fatal("ErrBaseMismatch does not wrap ErrWAL")
	}
}

// TestFileCRC32: the base binding key is the IEEE CRC-32 of the
// file's bytes, and a missing file is an error, not a zero key.
func TestFileCRC32(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.snap")
	data := []byte("snapshot bytes the log is bound to")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := FileCRC32(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.ChecksumIEEE(data); got != want {
		t.Fatalf("FileCRC32 = %#x, want %#x", got, want)
	}
	if _, err := FileCRC32(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("missing file hashed")
	}
}
