package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refPartialChecksum is the byte-pair one's-complement sum: one 16-bit
// big-endian word at a time, an odd trailing byte padded with zero, the
// carries left in the 32-bit accumulator for FinishChecksum to fold. It
// is the reference PartialChecksum must agree with.
func refPartialChecksum(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// checkPieces compares the word-wide sum with the reference over data
// cut into the given pieces, starting from sum.
func checkPieces(t *testing.T, sum uint32, pieces ...[]byte) {
	t.Helper()
	got, want := sum, sum
	for _, p := range pieces {
		got = PartialChecksum(got, p)
		want = refPartialChecksum(want, p)
	}
	if got%0xffff != want%0xffff || (got == 0) != (want == 0) {
		t.Fatalf("sum %#x over pieces of %v: accumulator %#x, reference %#x (not congruent mod 0xffff)",
			sum, pieceLens(pieces), got, want)
	}
	if g, w := FinishChecksum(got), FinishChecksum(want); g != w {
		t.Fatalf("sum %#x over pieces of %v: checksum %#04x, reference %#04x", sum, pieceLens(pieces), g, w)
	}
}

func pieceLens(pieces [][]byte) []int {
	var ls []int
	for _, p := range pieces {
		ls = append(ls, len(p))
	}
	return ls
}

// TestChecksumMatchesBytePairReference covers every length 0..1600, at
// both slice alignments, for random, all-zero and all-0xff data, from a
// zero and a pseudo-header-sized starting sum.
func TestChecksumMatchesBytePairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 1601)
	rng.Read(random)
	zeros := make([]byte, 1601)
	ones := bytes.Repeat([]byte{0xff}, 1601)
	for n := 0; n <= 1600; n++ {
		for _, data := range [][]byte{random, zeros, ones} {
			for _, sum := range []uint32{0, 0x1c2f3, 0xffff} {
				checkPieces(t, sum, data[:n])
				checkPieces(t, sum, data[1:n+1])
			}
		}
	}
}

// TestChecksumChainedPieces sums pieces the way the TCP and UDP codecs
// do (pseudo-header, then the segment), including odd-length first
// pieces: each piece restarts its own word pairing, so the word-wide sum
// must pad every odd piece exactly as the byte-pair sum does.
func TestChecksumChainedPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 1600)
	rng.Read(data)
	for first := 0; first <= 41; first++ {
		for _, second := range []int{0, 1, 2, 7, 8, 9, 31, 32, 33, 536, 1459} {
			a, b := data[:first], data[first:first+second]
			rest := data[first+second : first+second+64]
			checkPieces(t, 0, a, b)
			checkPieces(t, 0, a, b, rest)
			checkPieces(t, 0xfedc, b, a, rest[:first])
		}
	}
}

// TestChecksumFoldsToAllOnes checks sums that fold to 0xffff, whose
// checksum is 0: all-0xff data, and random data carrying its own
// checksum (the verify path). A zero sum, by contrast, yields 0xffff.
func TestChecksumFoldsToAllOnes(t *testing.T) {
	for n := 2; n <= 1600; n += 2 {
		if got := Checksum(bytes.Repeat([]byte{0xff}, n)); got != 0 {
			t.Fatalf("all-0xff length %d: checksum %#04x, want 0", n, got)
		}
	}
	if got := Checksum(make([]byte, 1500)); got != 0xffff {
		t.Fatalf("all-zero: checksum %#04x, want 0xffff", got)
	}
	rng := rand.New(rand.NewSource(3))
	for n := 2; n <= 1600; n += 2 {
		data := make([]byte, n)
		rng.Read(data)
		binary.BigEndian.PutUint16(data[n-2:], 0)
		binary.BigEndian.PutUint16(data[n-2:], Checksum(data))
		if !VerifyChecksum(data) {
			t.Fatalf("length %d: data carrying its own checksum does not verify", n)
		}
		checkPieces(t, 0, data)
	}
}

// FuzzChecksumEquivalence: for any data cut at any point and any
// starting sum, the word-wide sum must agree with the byte-pair
// reference. Data is capped at an IP datagram's 65535 bytes and the
// starting sum below 2^31, the range in which the reference's 32-bit
// accumulator cannot wrap.
func FuzzChecksumEquivalence(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint32(0))
	f.Add([]byte{0xff}, uint16(0), uint32(0xffff))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint16(12), uint32(0))
	f.Add([]byte("odd-length pseudo header, then an even segment"), uint16(11), uint32(0x1c2f3))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, sum uint32) {
		if len(data) > 65535 {
			data = data[:65535]
		}
		cut := int(split) % (len(data) + 1)
		sum &= 0x7fffffff
		checkPieces(t, sum, data)
		checkPieces(t, sum, data[:cut], data[cut:])
	})
}
