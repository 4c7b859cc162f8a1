package snapshot

import "encoding/binary"

// putU32/putU64 patch little-endian fields of an encoded snapshot in
// place, for corruption tests.
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
