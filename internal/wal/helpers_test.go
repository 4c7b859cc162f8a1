package wal

import (
	"hash/crc32"

	"repro/internal/binfmt"
)

// The single-record frames below are the layout logs written before
// batch frames hold. The log no longer writes them, but Replay must
// keep reading them, so the tests produce them here.

// encodeRecord frames payload as one record: type(1) + payload
// length(4) + payload CRC(4) + payload.
func encodeRecord(typ RecordType, payload []byte) []byte {
	var e binfmt.Encoder
	e.U8(uint8(typ))
	e.U32(uint32(len(payload)))
	e.U32(crc32.ChecksumIEEE(payload))
	e.Raw(payload)
	return e.Bytes()
}

// encodeAppendPayload renders an append payload: count(4) +
// firstID(8) + rows.
func encodeAppendPayload(firstID int64, rows [][]float64, dim int) []byte {
	var e binfmt.Encoder
	rec := Record{Type: RecordAppend, FirstID: firstID, Rows: rows}
	e.Grow(payloadLen(rec, dim))
	encodePayload(&e, rec)
	return e.Bytes()
}

// encodeDeletePayload renders a delete payload: fromID(8) + toID(8).
func encodeDeletePayload(fromID, toID int64) []byte {
	var e binfmt.Encoder
	encodePayload(&e, Record{Type: RecordDelete, FromID: fromID, ToID: toID})
	return e.Bytes()
}

// append writes one single-record frame.
func (l *Log) append(typ RecordType, payload []byte) error {
	return l.write(encodeRecord(typ, payload))
}
