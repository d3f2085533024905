package transport

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Float runs: every payload that carries tensor data (expert weights,
// JGR1 gradients, SERVE activations and outputs, checkpoint matrices)
// stores it as consecutive little-endian float32 bit patterns. On a
// little-endian host that is the in-memory layout of a []float32, so
// each run is one copy through a byte view of the slice; other hosts
// swap per element. Both paths move bit patterns, never values, so NaN
// payloads and signed zeros cross the wire unchanged.

// nativeLittleEndian is true when a []float32's bytes already are its
// little-endian wire form.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// PutFloat32s writes src into dst as little-endian float32 bit
// patterns, 4 bytes per element. dst must hold 4·len(src) bytes.
func PutFloat32s(dst []byte, src []float32) {
	if nativeLittleEndian {
		copy(dst[:4*len(src)], float32Bytes(src))
		return
	}
	putFloat32sLoop(dst, src)
}

// Float32s fills dst from the little-endian float32 bit patterns at
// the head of src. src must hold 4·len(dst) bytes.
func Float32s(dst []float32, src []byte) {
	if nativeLittleEndian {
		copy(float32Bytes(dst), src[:4*len(dst)])
		return
	}
	float32sLoop(dst, src)
}

// float32Bytes views s's backing array as bytes, without copying.
func float32Bytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// putFloat32sLoop is PutFloat32s's portable form, for any host order.
func putFloat32sLoop(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// float32sLoop is Float32s's portable form, for any host order.
func float32sLoop(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
