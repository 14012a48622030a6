// Package hash provides the collision-resistant hash function H used
// throughout the ICC protocols (paper §2.1), with mandatory domain
// separation so that hashes of different artifact kinds can never collide
// structurally.
package hash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Size is the byte length of a Digest.
const Size = sha256.Size

// Digest is the output of the hash function H.
type Digest [Size]byte

// Zero is the all-zero digest. It is used as the parent hash of round-1
// blocks (the root block serves as its own hash target).
var Zero Digest

// String returns the hex encoding of the digest (for logs and tests).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 4 bytes of the hex encoding, a compact handle
// for human-readable traces.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// IsZero reports whether the digest is the zero digest.
func (d Digest) IsZero() bool { return d == Zero }

// Domain labels a hashing context. Distinct domains guarantee that the
// encodings fed to the underlying hash can never collide across uses.
type Domain string

// Domains used by the protocol suite.
const (
	DomainBlock       Domain = "icc/block"
	DomainPayload     Domain = "icc/payload"
	DomainBeacon      Domain = "icc/beacon"
	DomainRanking     Domain = "icc/ranking"
	DomainMerkleLeaf  Domain = "icc/merkle-leaf"
	DomainMerkleInner Domain = "icc/merkle-inner"
	DomainHashToCurve Domain = "icc/hash-to-curve"
	DomainDLEQ        Domain = "icc/dleq"
	DomainDLEQNonce   Domain = "icc/dleq-nonce"
	DomainCommand     Domain = "icc/command"
	DomainState       Domain = "icc/state"
)

// Sum hashes the concatenation of the given byte slices under the given
// domain. Each chunk is length-prefixed, so the boundary between chunks
// is unambiguous: Sum(d, a, b) != Sum(d, a||b) unless a, b collide as
// framed encodings.
func Sum(domain Domain, chunks ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(domain)))
	h.Write(lenBuf[:])
	h.Write([]byte(domain))
	for _, c := range chunks {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(c)))
		h.Write(lenBuf[:])
		h.Write(c)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// SumUint64 hashes a domain together with a sequence of integers. It is a
// convenience for deriving deterministic values from counters (rounds,
// indices) without allocating intermediate encodings.
func SumUint64(domain Domain, vs ...uint64) Digest {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(buf[i*8:], v)
	}
	return Sum(domain, buf)
}
