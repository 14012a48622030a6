// Package thresig implements the unique (t, t+1, n)-threshold signature
// scheme S_beacon required by the ICC random beacon (paper §2.3, approach
// (iii)). A signature on message m is the group element sk·H2C(m), where
// sk is Shamir-shared among the n parties: signature shares are
// sk_i·H2C(m) with a DLEQ proof of correctness, and any threshold of
// valid shares combine — via Lagrange interpolation in the exponent — to
// the unique signature point.
//
// Uniqueness is the property the beacon needs: whichever subset of
// parties contributes shares, the combined signature (and hence the
// beacon value derived by hashing it) is identical, and it is
// unpredictable until at least one honest party has released a share.
package thresig

import (
	"errors"
	"fmt"
	"io"

	"icc/internal/crypto"
	"icc/internal/crypto/dleq"
	"icc/internal/crypto/ec"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/shamir"
)

// PublicInfo is the public key material for one scheme instance: the
// global public key and the per-party share public keys, as provisioned
// by the trusted dealer (paper §3.1).
type PublicInfo struct {
	N         int
	Threshold int
	Global    *ec.Point   // sk·G
	Shares    []*ec.Point // sk_i·G, indexed by party
}

// SecretShare is one party's signing key share. Obtain it from Deal or
// NewSecretShare, which also fix the public key share Key·G that every
// signature share's proof binds.
type SecretShare struct {
	Index int
	Key   *ec.Scalar
	pub   *ec.Point
}

// NewSecretShare returns party index's signing key share.
func NewSecretShare(index int, key *ec.Scalar) SecretShare {
	return SecretShare{Index: index, Key: key, pub: ec.BaseMul(key)}
}

// SigShare is a signature share together with its proof of correctness.
type SigShare struct {
	Index int
	Point *ec.Point // sk_i · H2C(m)
	Proof *dleq.Proof
}

// Signature is a combined (unique) threshold signature.
type Signature struct {
	Point *ec.Point // sk · H2C(m)
}

// Errors returned by the package. ErrBadShare wraps the repository-wide
// crypto.ErrBadShare sentinel for cross-scheme classification.
var (
	ErrBadIndex        = errors.New("thresig: share index out of range")
	ErrBadShare        = fmt.Errorf("thresig: %w", crypto.ErrBadShare)
	ErrNotEnoughShares = errors.New("thresig: not enough valid shares")
)

// Deal generates a fresh scheme instance with the given threshold.
// For the ICC beacon, threshold = t+1 so that t corrupt parties can never
// compute the next beacon value alone, while any t+1 parties can.
func Deal(rng io.Reader, threshold, n int) (*PublicInfo, []SecretShare, error) {
	sk, err := ec.RandomScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("thresig: sampling master key: %w", err)
	}
	shares, err := shamir.Deal(rng, sk, threshold, n)
	if err != nil {
		return nil, nil, fmt.Errorf("thresig: dealing: %w", err)
	}
	pub := &PublicInfo{
		N:         n,
		Threshold: threshold,
		Global:    ec.BaseMul(sk),
		Shares:    shamir.PublicShares(shares),
	}
	secrets := make([]SecretShare, n)
	for i, s := range shares {
		secrets[i] = SecretShare{Index: s.Index, Key: s.Value, pub: pub.Shares[i]}
	}
	return pub, secrets, nil
}

// messagePoint maps a message into the group.
func messagePoint(msg []byte) *ec.Point {
	d := hash.Sum(hash.DomainBeacon, msg)
	return ec.HashToPoint(d[:])
}

// Sign produces this party's signature share on msg. The share is a
// deterministic function of (sk, msg): re-signing yields identical bytes.
func Sign(sk SecretShare, msg []byte) *SigShare {
	h := messagePoint(msg)
	pt := h.Mul(sk.Key)
	return &SigShare{Index: sk.Index, Point: pt, Proof: dleq.Prove(sk.Key, h, sk.pub, pt, msg)}
}

// VerifyShare checks that a signature share was correctly computed with
// the registered key share of its claimed party.
func (p *PublicInfo) VerifyShare(msg []byte, s *SigShare) error {
	return p.verifyShare(messagePoint(msg), msg, s)
}

// verifyShare is VerifyShare with the message point h = H2C(msg) already
// computed.
func (p *PublicInfo) verifyShare(h *ec.Point, msg []byte, s *SigShare) error {
	if s == nil || s.Index < 0 || s.Index >= p.N {
		return ErrBadIndex
	}
	if s.Point == nil || !s.Point.IsOnCurve() {
		return fmt.Errorf("%w: point off curve", ErrBadShare)
	}
	if err := dleq.Verify(s.Proof, h, p.Shares[s.Index], s.Point, msg); err != nil {
		return fmt.Errorf("%w: %v", ErrBadShare, err)
	}
	return nil
}

// Combine verifies the given shares and combines any threshold of valid
// ones into the unique signature. Invalid or duplicate shares are skipped
// rather than failing the combination, matching the protocol's tolerance
// of corrupt contributions.
func (p *PublicInfo) Combine(msg []byte, shares []*SigShare) (*Signature, error) {
	h := messagePoint(msg)
	valid := make([]*SigShare, 0, p.Threshold)
	seen := make(map[int]struct{}, len(shares))
	for _, s := range shares {
		if len(valid) == p.Threshold {
			break
		}
		if s == nil {
			continue
		}
		if _, dup := seen[s.Index]; dup {
			continue
		}
		if err := p.verifyShare(h, msg, s); err != nil {
			continue
		}
		seen[s.Index] = struct{}{}
		valid = append(valid, s)
	}
	return p.Interpolate(valid)
}

// Interpolate combines threshold shares the caller has already verified
// (with VerifyShare, against the same message) into the unique
// signature; it checks nothing but the count and distinct indices.
func (p *PublicInfo) Interpolate(verified []*SigShare) (*Signature, error) {
	if len(verified) < p.Threshold {
		return nil, fmt.Errorf("%w: %d valid of %d needed", ErrNotEnoughShares, len(verified), p.Threshold)
	}
	pts := make([]shamir.PointShare, p.Threshold)
	for i, s := range verified[:p.Threshold] {
		pts[i] = shamir.PointShare{Index: s.Index, Value: s.Point}
	}
	pt, err := shamir.RecoverPoint(p.Threshold, pts)
	if err != nil {
		return nil, fmt.Errorf("thresig: combining: %w", err)
	}
	return &Signature{Point: pt}, nil
}

// Digest hashes the unique signature into a 32-byte value — the beacon
// output R_k for the round (modelled as a random oracle, paper §2.3).
func (s *Signature) Digest() hash.Digest {
	return hash.Sum(hash.DomainBeacon, s.Point.Encode())
}

// Encode serialises the signature point.
func (s *Signature) Encode() []byte { return s.Point.Encode() }

// DecodeSignature parses an encoded signature.
func DecodeSignature(b []byte) (*Signature, error) {
	pt, err := ec.DecodePoint(b)
	if err != nil {
		return nil, fmt.Errorf("thresig: decoding signature: %w", err)
	}
	return &Signature{Point: pt}, nil
}

// SigShareLen is the wire size of an encoded share (point + proof).
const SigShareLen = ec.PointLen + dleq.ProofLen

// Encode serialises a share as point || proof (the index travels in the
// enclosing protocol message).
func (s *SigShare) Encode() []byte {
	out := make([]byte, 0, SigShareLen)
	out = append(out, s.Point.Encode()...)
	out = append(out, s.Proof.Encode()...)
	return out
}

// DecodeSigShare parses an encoded share for the given party index.
func DecodeSigShare(index int, b []byte) (*SigShare, error) {
	if len(b) != SigShareLen {
		return nil, fmt.Errorf("%w: length %d", ErrBadShare, len(b))
	}
	pt, err := ec.DecodePoint(b[:ec.PointLen])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShare, err)
	}
	proof, err := dleq.Decode(b[ec.PointLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShare, err)
	}
	return &SigShare{Index: index, Point: pt, Proof: proof}, nil
}
