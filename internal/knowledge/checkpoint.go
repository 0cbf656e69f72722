package knowledge

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"namer/internal/obs"
)

// Checkpoint container: the on-disk envelope for the map/reduce mining
// driver's per-shard artifacts. Like the flat v2 knowledge format it is
// versioned, CRC-checked over every byte, and written atomically (temp
// file + rename), so a crashed or killed worker can never leave a torn
// artifact that a resumed driver would trust. The payload is opaque to
// this layer — the driver owns the per-kind encodings — but the kind
// string is part of the validated header, so a shard-statements file can
// never be misread as a shard-trees file.
//
// Layout (integers are unsigned varints unless noted):
//
//	magic     4 bytes  0x9F 'N' 'C' 'K'
//	version   varint   1
//	kind      varint length + raw bytes
//	payload   varint length + raw bytes
//	crc       4 bytes LE, CRC-32C over every preceding byte

// ckMagic identifies a checkpoint file. The first byte is outside ASCII,
// and the magic differs from the knowledge magic, so artifacts and
// checkpoints can never be confused.
var ckMagic = [4]byte{0x9F, 'N', 'C', 'K'}

// CheckpointVersion is the current checkpoint envelope version.
const CheckpointVersion = 1

const maxCheckpointKind = 256

// WriteCheckpointCtx is WriteCheckpoint under a tracing context: when
// the context carries a live trace, the write is recorded as a
// checkpoint_write span with the file, kind, and payload size — the
// per-shard I/O cost a distributed mine's trace makes visible. Outside
// a trace the span calls are free no-ops.
func WriteCheckpointCtx(ctx context.Context, path, kind string, payload []byte) error {
	_, sp := obs.StartSpan(ctx, "checkpoint_write")
	sp.SetAttr("file", filepath.Base(path))
	sp.SetAttr("kind", kind)
	sp.SetAttrInt("bytes", len(payload))
	defer sp.End()
	return WriteCheckpoint(path, kind, payload)
}

// ReadCheckpointCtx is ReadCheckpoint under a tracing context,
// recording a checkpoint_read span (file, kind, bytes, and whether the
// read validated) when the context carries a live trace.
func ReadCheckpointCtx(ctx context.Context, path, kind string) ([]byte, error) {
	_, sp := obs.StartSpan(ctx, "checkpoint_read")
	sp.SetAttr("file", filepath.Base(path))
	sp.SetAttr("kind", kind)
	defer sp.End()
	payload, err := ReadCheckpoint(path, kind)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	sp.SetAttrInt("bytes", len(payload))
	return payload, nil
}

// WriteCheckpoint writes payload to path inside a CRC-checked envelope,
// atomically (temp file in the destination directory + rename).
func WriteCheckpoint(path, kind string, payload []byte) error {
	buf, err := encodeCheckpoint(kind, payload)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, buf)
}

// encodeCheckpoint renders the envelope; decodeCheckpoint is its inverse.
func encodeCheckpoint(kind string, payload []byte) ([]byte, error) {
	if len(kind) == 0 || len(kind) > maxCheckpointKind {
		return nil, fmt.Errorf("knowledge: invalid checkpoint kind %q", kind)
	}
	buf := make([]byte, 0, len(payload)+len(kind)+32)
	buf = append(buf, ckMagic[:]...)
	buf = binary.AppendUvarint(buf, CheckpointVersion)
	buf = binary.AppendUvarint(buf, uint64(len(kind)))
	buf = append(buf, kind...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable)), nil
}

// ReadCheckpoint reads a checkpoint written by WriteCheckpoint,
// validating the magic, version, kind, length, and checksum. Any
// mismatch — including a kind other than the expected one — returns an
// error, which the driver treats as "re-run this shard".
func ReadCheckpoint(path, kind string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, gotKind, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%s: checkpoint kind %q, want %q", path, gotKind, kind)
	}
	return payload, nil
}

func decodeCheckpoint(data []byte) (payload []byte, kind string, err error) {
	if len(data) < len(ckMagic)+4 || string(data[:len(ckMagic)]) != string(ckMagic[:]) {
		return nil, "", fmt.Errorf("knowledge: not a checkpoint file (bad magic)")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, "", fmt.Errorf("knowledge: checkpoint checksum mismatch")
	}
	pos := len(ckMagic)
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("knowledge: truncated checkpoint %s at byte %d", what, pos)
		}
		pos += n
		return v, nil
	}
	version, err := uvarint("version")
	if err != nil {
		return nil, "", err
	}
	if version != CheckpointVersion {
		return nil, "", fmt.Errorf("knowledge: unsupported checkpoint version %d (this build reads %d)",
			version, CheckpointVersion)
	}
	kindLen, err := uvarint("kind length")
	if err != nil {
		return nil, "", err
	}
	if kindLen == 0 || kindLen > maxCheckpointKind || kindLen > uint64(len(body)-pos) {
		return nil, "", fmt.Errorf("knowledge: implausible checkpoint kind length %d", kindLen)
	}
	kind = string(body[pos : pos+int(kindLen)])
	pos += int(kindLen)
	payloadLen, err := uvarint("payload length")
	if err != nil {
		return nil, "", err
	}
	if payloadLen != uint64(len(body)-pos) {
		return nil, "", fmt.Errorf("knowledge: checkpoint payload length %d, have %d bytes",
			payloadLen, len(body)-pos)
	}
	return body[pos:], kind, nil
}
