package mpi

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The helpers below convert between typed slices and byte payloads. Sends
// copy into fresh byte buffers (one memmove); receives reinterpret the
// received buffer in place when alignment allows, falling back to a copy.
// Buffers produced by make([]byte, n) are at least 8-byte aligned in the Go
// runtime, so the in-place path is the common case.

func aligned(b []byte, n uintptr) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%n == 0
}

// Int32sAsBytes reinterprets v as its byte payload without copying; the
// result aliases v.
func Int32sAsBytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// BytesToInt32s reinterprets b as []int32, copying only if misaligned.
func BytesToInt32s(b []byte) []int32 {
	if len(b)%4 != 0 {
		panic("mpi: byte payload not a multiple of 4")
	}
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if aligned(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// Int64sToBytes copies v into a new byte slice.
func Int64sToBytes(v []int64) []byte {
	b := make([]byte, 8*len(v))
	if len(v) > 0 {
		src := unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
		copy(b, src)
	}
	return b
}

// Int64sAsBytes reinterprets v as its byte payload without copying; the
// result aliases v.
func Int64sAsBytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// BytesToInt64s reinterprets b as []int64, copying only if misaligned.
func BytesToInt64s(b []byte) []int64 {
	if len(b)%8 != 0 {
		panic("mpi: byte payload not a multiple of 8")
	}
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if aligned(b, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Float64sToBytes copies v into a new byte slice.
func Float64sToBytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	if len(v) > 0 {
		src := unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
		copy(b, src)
	}
	return b
}

// BytesToFloat64s reinterprets b as []float64, copying only if misaligned.
func BytesToFloat64s(b []byte) []float64 {
	if len(b)%8 != 0 {
		panic("mpi: byte payload not a multiple of 8")
	}
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if aligned(b, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// RecvInt32s receives a typed payload.
func (c *Comm) RecvInt32s(src, tag int) []int32 { return BytesToInt32s(c.Recv(src, tag)) }

// SendInt64s sends a typed payload; the slice is copied.
func (c *Comm) SendInt64s(dst, tag int, v []int64) { c.SendOwn(dst, tag, Int64sToBytes(v)) }

// RecvInt64s receives a typed payload.
func (c *Comm) RecvInt64s(src, tag int) []int64 { return BytesToInt64s(c.Recv(src, tag)) }
