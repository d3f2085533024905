package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
)

// SERVE payload: one inference micro-batch for one expert, stamped with
// the remaining deadline budget. The budget travels as a duration (not
// an absolute wall-clock deadline) so no clock synchronisation between
// front-end and expert machine is assumed — the receiver restarts the
// countdown from its own arrival time, which can only over-grant by the
// one-way wire latency, never expire early.
//
//	uint64 budget (remaining deadline, microseconds)
//	uint32 rows   (token rows in the micro-batch)
//	uint32 cols   (hidden width of each row)
//	float32[rows*cols] row-major token activations, little-endian
//
// SERVEOUT payload: the expert outputs for one SERVE micro-batch.
//
//	uint8 provenance (ProvOwner or ProvReplica)
//	float32[rows*cols] row-major outputs, little-endian (same shape)

// Answer provenance markers carried in a SERVEOUT payload: which rung
// of the degradation ladder produced the bytes.
const (
	ProvOwner   = 0x00 // computed on the expert's current owner
	ProvReplica = 0x01 // computed from an in-sync replica copy
)

// serveHeaderBytes is the fixed prefix of a SERVE payload.
const serveHeaderBytes = 8 + 4 + 4

// serveOutHeaderBytes is the fixed prefix of a SERVEOUT payload.
const serveOutHeaderBytes = 1

// maxServeBytes bounds the activation bytes a SERVE decoder will
// accept, so a corrupt shape cannot force an unbounded allocation. A
// SERVE payload rides inside one frame, so the frame limit is the
// natural bound.
const maxServeBytes = maxFrameBytes - frameHeaderBytes - serveHeaderBytes

// ErrServeExpired is the error a ServingStore returns when a
// micro-batch's budget was already spent on arrival. It crosses the
// wire as a msgError payload, so a client recognises it by the
// RemoteError's message text, mirroring how every other remote error
// travels.
var ErrServeExpired = errors.New("transport: serve budget expired")

// EncodeServe serialises a SERVE payload: the remaining budget and the
// micro-batch rows. rows must be rectangular rows×cols float32 data.
func EncodeServe(budgetMicros uint64, rows, cols int, data []float32) ([]byte, error) {
	if rows <= 0 || cols <= 0 || rows*cols != len(data) {
		return nil, fmt.Errorf("transport: serve shape %dx%d does not hold %d values", rows, cols, len(data))
	}
	if 4*len(data) > maxServeBytes {
		return nil, fmt.Errorf("transport: serve payload %d exceeds limit", 4*len(data))
	}
	buf := make([]byte, serveHeaderBytes+4*len(data))
	binary.BigEndian.PutUint64(buf[0:8], budgetMicros)
	binary.BigEndian.PutUint32(buf[8:12], uint32(rows))
	binary.BigEndian.PutUint32(buf[12:16], uint32(cols))
	PutFloat32s(buf[serveHeaderBytes:], data)
	return buf, nil
}

// DecodeServe parses a SERVE payload. Truncation, a zero or oversized
// shape, or a shape that disagrees with the byte count fail the decode
// — a torn micro-batch is rejected whole. The returned values are a
// fresh slice; raw may be recycled afterwards.
func DecodeServe(raw []byte) (budgetMicros uint64, rows, cols int, data []float32, err error) {
	if len(raw) < serveHeaderBytes {
		return 0, 0, 0, nil, errors.New("transport: serve payload truncated")
	}
	budgetMicros = binary.BigEndian.Uint64(raw[0:8])
	r := binary.BigEndian.Uint32(raw[8:12])
	c := binary.BigEndian.Uint32(raw[12:16])
	if r == 0 || c == 0 {
		return 0, 0, 0, nil, errors.New("transport: serve batch has empty shape")
	}
	n := int64(r) * int64(c) * 4
	if n > maxServeBytes {
		return 0, 0, 0, nil, fmt.Errorf("transport: serve claims %dx%d rows", r, c)
	}
	if int(n) != len(raw)-serveHeaderBytes {
		return 0, 0, 0, nil, fmt.Errorf("transport: serve has %d data bytes, shape claims %d",
			len(raw)-serveHeaderBytes, n)
	}
	data = make([]float32, int(r)*int(c))
	Float32s(data, raw[serveHeaderBytes:])
	return budgetMicros, int(r), int(c), data, nil
}

// EncodeServeOut serialises a SERVEOUT payload: the answer provenance
// byte followed by the output rows.
func EncodeServeOut(provenance byte, data []float32) ([]byte, error) {
	if provenance != ProvOwner && provenance != ProvReplica {
		return nil, fmt.Errorf("transport: unknown serve provenance %#x", provenance)
	}
	if 4*len(data) > maxServeBytes {
		return nil, fmt.Errorf("transport: serve output %d exceeds limit", 4*len(data))
	}
	buf := make([]byte, serveOutHeaderBytes+4*len(data))
	buf[0] = provenance
	PutFloat32s(buf[serveOutHeaderBytes:], data)
	return buf, nil
}

// DecodeServeOut parses a SERVEOUT payload. The data length must be a
// whole number of float32s; the caller validates the shape against the
// request it sent.
func DecodeServeOut(raw []byte) (provenance byte, data []float32, err error) {
	if len(raw) < serveOutHeaderBytes {
		return 0, nil, errors.New("transport: serve output truncated")
	}
	provenance = raw[0]
	if provenance != ProvOwner && provenance != ProvReplica {
		return 0, nil, fmt.Errorf("transport: unknown serve provenance %#x", provenance)
	}
	body := raw[serveOutHeaderBytes:]
	if len(body)%4 != 0 {
		return 0, nil, fmt.Errorf("transport: serve output has %d trailing bytes", len(body)%4)
	}
	data = make([]float32, len(body)/4)
	Float32s(data, body)
	return provenance, data, nil
}

// ServeExpert sends one inference micro-batch (an EncodeServe payload)
// to the expert machine at addr and returns the decoded outputs plus
// their provenance. Like every non-JOIN frame the request is
// epoch-fenced, so a front-end with a stale membership view can never
// read weights from a deposed owner. Retries are safe: serving is
// read-only. A budget already expired at the server is surfaced as a
// RemoteError recognised by IsServeExpired.
func (c *Client) ServeExpert(ctx context.Context, addr string, id ExpertID, payload []byte) (provenance byte, data []float32, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	resp, err := c.do(ctx, addr, frame{typ: msgServe, id: id, payload: payload})
	if err != nil {
		return 0, nil, err
	}
	if resp.typ != msgServeOut {
		resp.recycle()
		return 0, nil, fmt.Errorf("transport: unexpected response type %#x", resp.typ)
	}
	provenance, data, err = DecodeServeOut(resp.payload)
	resp.recycle()
	return provenance, data, err
}
