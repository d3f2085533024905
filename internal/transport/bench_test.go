package transport

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// benchFrameBytes serialises one frame and returns its wire bytes.
func benchFrameBytes(b *testing.B, f frame) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, f); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadFrameGrad measures the per-frame read cost for a
// gradient-sized payload. With buffer pooling the steady state should
// be allocation-free: the GRAD handler recycles the payload buffer and
// the next read reuses it.
func BenchmarkReadFrameGrad(b *testing.B) {
	payload := make([]byte, gradTokenBytes+64*1024)
	raw := benchFrameBytes(b, frame{typ: msgGrad, reqID: 7, payload: payload})
	br := bytes.NewReader(raw)
	r := bufio.NewReaderSize(br, 1<<16)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Seek(0, io.SeekStart)
		r.Reset(br)
		f, err := readFrame(r)
		if err != nil {
			b.Fatal(err)
		}
		f.recycle() // what the server does after the store consumed it
	}
}

// BenchmarkReadFrameHeaderOnly measures the hot heartbeat/ack path:
// readFrame recycles the buffer internally, so no allocation at all.
func BenchmarkReadFrameHeaderOnly(b *testing.B) {
	raw := benchFrameBytes(b, frame{typ: msgPing, reqID: 7})
	br := bytes.NewReader(raw)
	r := bufio.NewReaderSize(br, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Seek(0, io.SeekStart)
		r.Reset(br)
		if _, err := readFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}
