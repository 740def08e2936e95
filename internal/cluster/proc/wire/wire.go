// Package wire defines the versioned flat binary frame format of the
// proc cluster. Every frame on a proc connection is a 4-byte
// big-endian payload length (netfault.HeaderLen) followed by a raw
// columnar payload:
//
//	payload = [CodecRaw][version][kind][id: 8 bytes LE][body]
//
// The kind byte names the concrete message type; the body is a
// sequence of little-endian column segments (see package colbytes)
// written by loops over the message's flat arrays, with no reflection,
// no type descriptors and no per-frame codec state. The leading
// CodecRaw byte is kept from the two-codec protocol so frames stay
// byte-identical to it; a decoder rejects any other first byte.
//
// Versioning: the payload carries Version. A decoder seeing a
// different version fails the frame with *VersionError — the typed
// rejection the cross-process compatibility suite pins — rather than
// misreading the body.
//
// Buffer ownership: the proc package assembles and receives frames in
// pooled Bufs. A pooled buffer may be recycled the moment the frame's
// Write (or decode) returns, so decoded messages must own their memory
// — every raw decoder copies column data out of the frame buffer into
// exactly-sized arenas before returning. Nothing decoded aliases the
// receive buffer.
package wire

import (
	"fmt"

	"optiflow/internal/cluster/proc/netfault"
)

// Version is the raw-codec format version. Bump it whenever a body
// encoding changes shape; the decoder rejects any other version with
// *VersionError. Version 2 carries vertices as int32 dense indices,
// message runs per source partition and one state column per
// partition.
const Version byte = 2

// CodecRaw is the first payload byte of every frame.
const CodecRaw byte = 0x01

// Payload kinds. The kind byte names the concrete message type of a
// frame's body. Kind 6 is retired (it named the snapshot blob on the
// former gob fallback list); never reuse it.
const (
	KStepReq     byte = 1
	KStepResp    byte = 2
	KFetchResp   byte = 3
	KRestoreReq  byte = 4
	KLoadReq     byte = 5
	KDataFetch   byte = 7
	KDataRestore byte = 8
	KDataChunk   byte = 9
	KDataAck     byte = 10
	KDataErr     byte = 11
	KHello       byte = 12
	KHelloOK     byte = 13
	KHeartbeat   byte = 14
	KOKResp      byte = 15
	KErrResp     byte = 16
	KPingReq     byte = 17
	KCommitReq   byte = 18
	KAbortReq    byte = 19
	KFetchReq    byte = 20
	KClearReq    byte = 21
	KResetReq    byte = 22
	KShutdownReq byte = 23
	KStatsReq    byte = 24
	KWorkerStats byte = 25
)

// MaxFrame is the hard ceiling on any payload, inherited from the
// length-prefix layer. Configurable caps (see SizeError) may only
// lower it.
const MaxFrame = netfault.MaxFrame

// SizeError is the typed oversized-frame rejection, raised on the
// encode path (a frame grew past the cap before hitting the network)
// and on the decode path (a length prefix claims more than the cap —
// corrupt, or an unconfigured peer). It ends the connection: a frame
// too large to buffer cannot be skipped on a stream.
type SizeError struct {
	Size  int // payload bytes, excluding the length prefix
	Limit int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("wire: frame payload %d bytes exceeds cap %d", e.Size, e.Limit)
}

// CheckSize validates a payload size against a cap (0 means MaxFrame).
func CheckSize(size, limit int) error {
	if limit <= 0 || limit > MaxFrame {
		limit = MaxFrame
	}
	if size > limit {
		return &SizeError{Size: size, Limit: limit}
	}
	return nil
}

// VersionError is the typed raw-format version rejection.
type VersionError struct {
	Got, Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: raw format version %d, this binary speaks %d", e.Got, e.Want)
}

// Buf is a pooled frame-assembly buffer. Pooled as a pointer so
// returning one to the pool does not itself allocate a slice header.
type Buf struct {
	B []byte
}
