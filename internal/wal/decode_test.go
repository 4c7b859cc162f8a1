package wal

import (
	"encoding/binary"
	"testing"
)

// TestReplayShortAppendPayload: an append whose row count fits the
// payload only when its first-ID field is counted as row data is a
// torn frame, not a panic: the count is checked against the bytes
// left, and the rows against the bytes left after the ID.
func TestReplayShortAppendPayload(t *testing.T) {
	h := Header{Dim: 1, NextID: 0}
	payload := binary.LittleEndian.AppendUint32(nil, 1) // one row
	payload = binary.LittleEndian.AppendUint64(payload, 0)
	for _, img := range [][]byte{
		append(encodeHeader(h), encodeRecord(RecordAppend, payload)...),
		append(encodeHeader(h), encodeRecord(RecordBatch, batchOf(RecordAppend, payload))...),
	} {
		rep, err := Replay(img)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Torn || len(rep.Records) != 0 {
			t.Fatalf("short append replayed: torn=%v records=%+v", rep.Torn, rep.Records)
		}
	}
}

// batchOf wraps one sub-record payload in a batch payload stamped 1.
func batchOf(typ RecordType, sub []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, 1)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, byte(typ))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sub)))
	return append(b, sub...)
}
