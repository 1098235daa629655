// Package bloom implements the read/write signatures used by the
// interval orderer: k parallel Bloom filter arrays addressed by H3
// hash functions, following the paper's Table 1 configuration of
// 4 x 256-bit filters.
//
// H3 hashing computes each hash as the XOR of a set of random rows
// selected by the set bits of the key. The row matrices are derived
// from a deterministic PRNG so that all recorders in a machine (and
// across runs) use identical functions, keeping simulations
// reproducible.
package bloom

import "math/bits"

// Default geometry from the paper (Table 1).
const (
	// DefaultArrays is the number of parallel Bloom filters.
	DefaultArrays = 4
	// DefaultBits is the number of bits per filter.
	DefaultBits = 256
)

// h3 is one H3 hash function: 64 random rows, one per key bit; the
// hash of a key is the XOR of the rows whose key bit is set, reduced
// modulo the filter size.
type h3 struct {
	rows [64]uint32
}

func (h *h3) hash(key uint64, mod uint32) uint32 {
	var acc uint32
	for key != 0 {
		i := bits.TrailingZeros64(key)
		acc ^= h.rows[i]
		key &= key - 1
	}
	return acc % mod
}

// splitmix64 is the deterministic generator for H3 row matrices.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Signature is a multi-array Bloom filter over cache-line addresses.
type Signature struct {
	bits    [][]uint64 // one bitmap per array
	fns     []h3
	nbits   uint32
	ninsert int
}

// NewSignature returns a Signature with the given geometry. The seed
// selects the H3 hash family; use the same seed for signatures that
// must be comparable.
func NewSignature(arrays, bitsPerArray int, seed uint64) *Signature {
	if arrays <= 0 || bitsPerArray <= 0 || bitsPerArray%64 != 0 {
		panic("bloom: invalid signature geometry")
	}
	s := &Signature{
		bits:  make([][]uint64, arrays),
		fns:   make([]h3, arrays),
		nbits: uint32(bitsPerArray),
	}
	state := seed
	for a := range s.fns {
		s.bits[a] = make([]uint64, bitsPerArray/64)
		for r := range s.fns[a].rows {
			s.fns[a].rows[r] = uint32(splitmix64(&state))
		}
	}
	return s
}

// NewDefault returns a Signature with the paper's 4x256-bit geometry.
func NewDefault(seed uint64) *Signature {
	return NewSignature(DefaultArrays, DefaultBits, seed)
}

// Insert adds a line address to the signature.
func (s *Signature) Insert(line uint64) {
	for a := range s.fns {
		b := s.fns[a].hash(line, s.nbits)
		s.bits[a][b/64] |= 1 << (b % 64)
	}
	s.ninsert++
}

// MayContain reports whether line may have been inserted. False
// positives are possible; false negatives are not.
func (s *Signature) MayContain(line uint64) bool {
	for a := range s.fns {
		b := s.fns[a].hash(line, s.nbits)
		if s.bits[a][b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the signature.
func (s *Signature) Clear() {
	for a := range s.bits {
		for i := range s.bits[a] {
			s.bits[a][i] = 0
		}
	}
	s.ninsert = 0
}

// Empty reports whether nothing has been inserted since the last Clear.
func (s *Signature) Empty() bool { return s.ninsert == 0 }

// Inserted returns the number of Insert calls since the last Clear.
func (s *Signature) Inserted() int { return s.ninsert }

// SizeBits returns the total storage of the signature in bits.
func (s *Signature) SizeBits() int { return len(s.bits) * int(s.nbits) }
