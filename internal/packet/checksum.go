package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the Internet checksum (RFC 1071) over data: the 16-bit
// one's complement of the one's complement sum of the 16-bit words. An odd
// trailing byte is padded with zero.
func Checksum(data []byte) uint16 {
	return FinishChecksum(PartialChecksum(0, data))
}

// PartialChecksum folds data into an ongoing one's-complement sum. Use it
// to checksum a packet in pieces (pseudo-header, header, payload), then
// call FinishChecksum. Each piece is summed as 16-bit words from its own
// first byte, an odd trailing byte padded with zero, so the pieces after
// the first must have even length for the result to equal the checksum
// of their concatenation; darpanet's pseudo-headers and headers all do.
//
// The sum runs over 64-bit big-endian words with the carries deferred to
// the end (RFC 1071 §4): 2^16 ≡ 1 modulo 0xffff, so a 64-bit word is
// congruent to the sum of its four 16-bit words, and a carry out of bit
// 63 re-enters at bit 0. The returned accumulator is congruent modulo
// 0xffff to the 16-bit word sum and is zero only when that sum is, which
// is all FinishChecksum depends on.
func PartialChecksum(sum uint32, data []byte) uint32 {
	s, carry := uint64(sum), uint64(0)
	// Four words per iteration: twice the speed of the one-word loop
	// alone on a 1500-byte segment.
	for len(data) >= 32 {
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data), carry)
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data[8:]), carry)
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data[16:]), carry)
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		s, carry = bits.Add64(s, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	var tail uint64
	for len(data) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0]) << 8
	}
	s, carry = bits.Add64(s, tail, carry)
	s += carry // cannot wrap: a carry out leaves s below tail
	s = s>>32 + s&0xffffffff
	s = s>>32 + s&0xffffffff
	return uint32(s)
}

// FinishChecksum folds the 32-bit accumulator to 16 bits and complements
// it.
func FinishChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// VerifyChecksum reports whether data, which includes its checksum field,
// sums to the all-ones pattern as RFC 1071 requires of a valid packet.
func VerifyChecksum(data []byte) bool {
	return FinishChecksum(PartialChecksum(0, data)) == 0
}
