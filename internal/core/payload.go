package core

import (
	"encoding/binary"

	"txkv/internal/kv"
)

// clientSessionPrefix prefixes client heartbeat sessions on the
// coordination service. Region servers have no session: their T_P(s) rides
// the master heartbeat.
const clientSessionPrefix = "client/"

// Persistent keys on the coordination service.
const (
	// KeyGlobalTF holds the recovery manager's published global flushed
	// threshold T_F; a registering client starts from it (Alg. 2).
	KeyGlobalTF = "global/tf"
	// KeyManagerState holds the recovery manager's checkpoint for
	// fail-over (paper §3.3).
	KeyManagerState = "rm/state"
)

// encodeTS encodes a threshold timestamp as a heartbeat payload.
func encodeTS(ts kv.Timestamp) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(ts))
	return b[:]
}

// decodeTS decodes a heartbeat payload; a missing/short payload reads as 0.
func decodeTS(b []byte) kv.Timestamp {
	if len(b) < 8 {
		return 0
	}
	return kv.Timestamp(binary.BigEndian.Uint64(b))
}
