// Package keccak implements the original Keccak-256 hash (as used by
// Ethereum, with the pre-SHA-3 0x01 domain padding). The standard library
// has no SHA-3 family, so the sponge and the Keccak-f[1600] permutation are
// implemented here from scratch.
package keccak

import "math/bits"

const (
	// rate for Keccak-256: 1600 - 2*256 bits = 1088 bits = 136 bytes.
	rate = 136
	// Size is the digest length in bytes.
	Size = 32
	// rounds of Keccak-f[1600].
	rounds = 24
)

// roundConstants for the iota step.
var roundConstants = [rounds]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// rotation offsets for the rho step, indexed [x][y].
var rotc = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// state is the 5x5 lane array of the sponge.
type state [25]uint64

// permute applies Keccak-f[1600] in place. The round body is fully
// unrolled with constant indices and rotation amounts (generated from the
// rho offset table), which keeps the lanes in registers and eliminates the
// bounds checks and modular index arithmetic of the textbook loops.
func (a *state) permute() {
	var b [25]uint64
	for round := 0; round < rounds; round++ {
		// theta
		c0 := a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
		c1 := a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
		c2 := a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
		c3 := a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
		c4 := a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		a[0] ^= d0
		a[5] ^= d0
		a[10] ^= d0
		a[15] ^= d0
		a[20] ^= d0
		a[1] ^= d1
		a[6] ^= d1
		a[11] ^= d1
		a[16] ^= d1
		a[21] ^= d1
		a[2] ^= d2
		a[7] ^= d2
		a[12] ^= d2
		a[17] ^= d2
		a[22] ^= d2
		a[3] ^= d3
		a[8] ^= d3
		a[13] ^= d3
		a[18] ^= d3
		a[23] ^= d3
		a[4] ^= d4
		a[9] ^= d4
		a[14] ^= d4
		a[19] ^= d4
		a[24] ^= d4
		// rho and pi
		b[0] = a[0]
		b[16] = bits.RotateLeft64(a[5], 36)
		b[7] = bits.RotateLeft64(a[10], 3)
		b[23] = bits.RotateLeft64(a[15], 41)
		b[14] = bits.RotateLeft64(a[20], 18)
		b[10] = bits.RotateLeft64(a[1], 1)
		b[1] = bits.RotateLeft64(a[6], 44)
		b[17] = bits.RotateLeft64(a[11], 10)
		b[8] = bits.RotateLeft64(a[16], 45)
		b[24] = bits.RotateLeft64(a[21], 2)
		b[20] = bits.RotateLeft64(a[2], 62)
		b[11] = bits.RotateLeft64(a[7], 6)
		b[2] = bits.RotateLeft64(a[12], 43)
		b[18] = bits.RotateLeft64(a[17], 15)
		b[9] = bits.RotateLeft64(a[22], 61)
		b[5] = bits.RotateLeft64(a[3], 28)
		b[21] = bits.RotateLeft64(a[8], 55)
		b[12] = bits.RotateLeft64(a[13], 25)
		b[3] = bits.RotateLeft64(a[18], 21)
		b[19] = bits.RotateLeft64(a[23], 56)
		b[15] = bits.RotateLeft64(a[4], 27)
		b[6] = bits.RotateLeft64(a[9], 20)
		b[22] = bits.RotateLeft64(a[14], 39)
		b[13] = bits.RotateLeft64(a[19], 8)
		b[4] = bits.RotateLeft64(a[24], 14)
		// chi
		a[0] = b[0] ^ (^b[1] & b[2])
		a[1] = b[1] ^ (^b[2] & b[3])
		a[2] = b[2] ^ (^b[3] & b[4])
		a[3] = b[3] ^ (^b[4] & b[0])
		a[4] = b[4] ^ (^b[0] & b[1])
		a[5] = b[5] ^ (^b[6] & b[7])
		a[6] = b[6] ^ (^b[7] & b[8])
		a[7] = b[7] ^ (^b[8] & b[9])
		a[8] = b[8] ^ (^b[9] & b[5])
		a[9] = b[9] ^ (^b[5] & b[6])
		a[10] = b[10] ^ (^b[11] & b[12])
		a[11] = b[11] ^ (^b[12] & b[13])
		a[12] = b[12] ^ (^b[13] & b[14])
		a[13] = b[13] ^ (^b[14] & b[10])
		a[14] = b[14] ^ (^b[10] & b[11])
		a[15] = b[15] ^ (^b[16] & b[17])
		a[16] = b[16] ^ (^b[17] & b[18])
		a[17] = b[17] ^ (^b[18] & b[19])
		a[18] = b[18] ^ (^b[19] & b[15])
		a[19] = b[19] ^ (^b[15] & b[16])
		a[20] = b[20] ^ (^b[21] & b[22])
		a[21] = b[21] ^ (^b[22] & b[23])
		a[22] = b[22] ^ (^b[23] & b[24])
		a[23] = b[23] ^ (^b[24] & b[20])
		a[24] = b[24] ^ (^b[20] & b[21])
		// iota
		a[0] ^= roundConstants[round]
	}
}

// Hasher computes a Keccak-256 digest incrementally. The zero value is ready
// to use. It implements a subset of hash.Hash (Write/Sum semantics) without
// claiming the interface, since Sum256 covers most callers.
type Hasher struct {
	a      state
	buf    [rate]byte
	buffed int
}

// Write absorbs p into the sponge. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		take := copy(h.buf[h.buffed:], p)
		h.buffed += take
		p = p[take:]
		if h.buffed == rate {
			h.absorb()
		}
	}
	return n, nil
}

func (h *Hasher) absorb() {
	for i := 0; i < rate/8; i++ {
		h.a[i] ^= le64(h.buf[i*8:])
	}
	h.a.permute()
	h.buffed = 0
}

// Sum returns the digest of everything written so far appended to b. The
// hasher state is not modified, so further writes continue the same stream.
func (h *Hasher) Sum(b []byte) []byte {
	out := h.sum()
	return append(b, out[:]...)
}

// sum is Sum as an array, so Sum256 returns it without a heap copy.
func (h *Hasher) sum() [Size]byte {
	// Work on a copy so Sum is non-destructive.
	cp := *h
	// Original Keccak padding: 0x01 ... 0x80.
	cp.buf[cp.buffed] = 0x01
	for i := cp.buffed + 1; i < rate; i++ {
		cp.buf[i] = 0
	}
	cp.buf[rate-1] |= 0x80
	cp.absorb()
	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		putLE64(out[i*8:], cp.a[i])
	}
	return out
}

// Reset restores the initial state.
func (h *Hasher) Reset() {
	*h = Hasher{}
}

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data []byte) [Size]byte {
	var h Hasher
	_, _ = h.Write(data)
	return h.sum()
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
