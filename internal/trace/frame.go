package trace

// Length-prefixed frame codec, the one frame every binary surface that
// moves records uses. A frame is
//
//	len u32 LE | crc32c u32 LE | payload (len bytes)
//
// with the CRC computed over the payload using the Castagnoli
// polynomial. Three surfaces carry it:
//
//   - WAL segments (internal/wal): one frame per record, back to back;
//     snapshot sections share the header layout and checksum.
//   - SSDB ingest batches (record.go): a batch header, then one frame
//     per record whose payload is the record's WAL payload, so an
//     accepted frame is journaled verbatim and never re-encoded.
//   - The catch-up stream (GET /v1/wal/stream): each frame preceded by
//     its LSN, lsn u64 LE | frame (AppendStreamFrame, NextStreamFrame),
//     so a puller checks every checksum and LSN continuity itself.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"time"
)

// FrameOverhead is the byte cost of one frame header (length + CRC).
const FrameOverhead = 8

var frameTable = crc32.MakeTable(crc32.Castagnoli)

// Frame decode failures are static sentinels so hot-path callers can
// classify them without allocating.
var (
	ErrFrameTruncated = errors.New("trace: frame truncated")
	ErrFrameEmpty     = errors.New("trace: zero-length frame")
	ErrFrameTooLarge  = errors.New("trace: frame exceeds payload limit")
	ErrFrameCRC       = errors.New("trace: frame CRC mismatch")
)

// FrameCRC returns the CRC32C of payload: the checksum a frame header
// stores for it.
func FrameCRC(payload []byte) uint32 {
	return crc32.Checksum(payload, frameTable)
}

// AppendFrame appends one complete frame wrapping payload.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, FrameCRC(payload))
	return append(dst, payload...)
}

// BeginFrame reserves a frame header at the end of dst and returns the
// extended slice; the caller appends the payload in place and seals it
// with EndFrame(dst, start) where start = len(dst) before BeginFrame.
// The pair lets encoders build framed records without an intermediate
// payload buffer.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// EndFrame back-fills the header reserved by BeginFrame at start, using
// everything appended since as the payload.
func EndFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameOverhead:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], FrameCRC(payload))
	return dst
}

// NextFrame decodes the frame at the front of b, returning its payload
// (aliasing b, not copied) and the remainder. maxPayload bounds the
// declared length before any allocation or checksum work, so a corrupt
// length prefix cannot drive a huge read. Errors are the ErrFrame*
// sentinels; payload and rest are nil on error.
func NextFrame(b []byte, maxPayload int) (payload, rest []byte, err error) {
	if len(b) < FrameOverhead {
		return nil, nil, ErrFrameTruncated
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 {
		return nil, nil, ErrFrameEmpty
	}
	if uint64(n) > uint64(maxPayload) {
		return nil, nil, ErrFrameTooLarge
	}
	want := binary.LittleEndian.Uint32(b[4:])
	body := b[FrameOverhead:]
	if uint64(len(body)) < uint64(n) {
		return nil, nil, ErrFrameTruncated
	}
	payload = body[:n]
	if FrameCRC(payload) != want {
		return nil, nil, ErrFrameCRC
	}
	return payload, body[n:], nil
}

// The catch-up stream: GET /v1/wal/stream answers with stream frames
// and two headers.
const (
	// StreamFrameHeader is the per-frame header size on the catch-up
	// wire: the LSN and the frame header.
	StreamFrameHeader = 8 + FrameOverhead

	// MaxStreamWait caps wait_ms: how long one catch-up request may stay
	// parked when the log has nothing past its position. It sets an idle
	// follower's request rate (one per cap) and must stay well inside any
	// client's timeout.
	MaxStreamWait = time.Second

	// HeaderWALLastLSN carries the log's last LSN on every 200 from the
	// catch-up endpoint, so a follower knows its lag without a second
	// request. HeaderWALParked is set when the request was parked: the
	// server honoured wait_ms, so an empty reply may be re-polled at once
	// without spinning.
	HeaderWALLastLSN = "X-Wal-Last-Lsn"
	HeaderWALParked  = "X-Wal-Parked"
)

// AppendStreamFrame appends one catch-up frame: lsn, then the frame
// wrapping payload.
func AppendStreamFrame(dst []byte, lsn uint64, payload []byte) []byte {
	return AppendFrame(binary.LittleEndian.AppendUint64(dst, lsn), payload)
}

// NextStreamFrame decodes the catch-up frame at the front of b into its
// LSN, its payload (aliasing b) and the remainder, with NextFrame's
// checks and errors.
func NextStreamFrame(b []byte, maxPayload int) (lsn uint64, payload, rest []byte, err error) {
	if len(b) < StreamFrameHeader {
		return 0, nil, nil, ErrFrameTruncated
	}
	if payload, rest, err = NextFrame(b[8:], maxPayload); err != nil {
		return 0, nil, nil, err
	}
	return binary.LittleEndian.Uint64(b), payload, rest, nil
}
