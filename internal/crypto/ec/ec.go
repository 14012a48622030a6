// Package ec is the prime-order group underlying the threshold signature
// scheme S_beacon used by the ICC random beacon (paper §2.3, approach
// (iii)): the protocol needs a group in which discrete logs are hard,
// points can be hashed to, and Lagrange interpolation "in the exponent"
// works.
//
// The group is NIST P-256. Point addition, scalar multiplication and
// decompression are delegated to the standard library's constant-time
// implementation behind crypto/elliptic.P256(); this file only adapts
// that API: it fixes the 33-byte compressed wire form (the identity
// encodes as 33 zero bytes), rejects non-canonical encodings, and maps
// bytes to points. P-256 has cofactor 1, so every decoded point is in
// the prime-order group.
package ec

import (
	"bytes"
	"crypto/elliptic"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"icc/internal/crypto/hash"
)

var curve = elliptic.P256()

var (
	// P is the field prime 2^256 − 2^224 + 2^192 + 2^96 − 1.
	P = curve.Params().P
	// N is the (prime) group order.
	N = curve.Params().N

	pBytes = P.FillBytes(make([]byte, 32))
)

// PointLen is the length of a compressed point encoding.
const PointLen = 33

// ScalarLen is the length of a scalar encoding.
const ScalarLen = 32

// ErrInvalidPoint is returned when decoding bytes that are not a valid
// compressed curve point.
var ErrInvalidPoint = errors.New("ec: invalid point encoding")

// ErrInvalidScalar is returned when decoding bytes that are not a valid
// scalar in [0, N).
var ErrInvalidScalar = errors.New("ec: invalid scalar encoding")

// Point is a group element in affine coordinates; the identity is (0, 0),
// the crypto/elliptic convention. The zero value is NOT valid; use
// Infinity() or the constructors. Points are immutable once created.
type Point struct {
	x, y *big.Int
}

// Infinity returns the group identity.
func Infinity() *Point { return &Point{x: new(big.Int), y: new(big.Int)} }

// Generator returns the standard base point G.
func Generator() *Point {
	return &Point{x: new(big.Int).Set(curve.Params().Gx), y: new(big.Int).Set(curve.Params().Gy)}
}

// IsInfinity reports whether p is the identity.
func (p *Point) IsInfinity() bool { return p.x.Sign() == 0 && p.y.Sign() == 0 }

// Equal reports whether two points are the same group element.
func (p *Point) Equal(q *Point) bool { return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0 }

// IsOnCurve reports whether p is a group element (the identity included).
func (p *Point) IsOnCurve() bool { return p.IsInfinity() || curve.IsOnCurve(p.x, p.y) }

// Add returns p + q.
func (p *Point) Add(q *Point) *Point {
	x, y := curve.Add(p.x, p.y, q.x, q.y)
	return &Point{x: x, y: y}
}

// Neg returns −p.
func (p *Point) Neg() *Point {
	if p.IsInfinity() {
		return Infinity()
	}
	return &Point{x: new(big.Int).Set(p.x), y: new(big.Int).Sub(P, p.y)}
}

// Sub returns p − q.
func (p *Point) Sub(q *Point) *Point { return p.Add(q.Neg()) }

// Mul returns k·p.
func (p *Point) Mul(k *Scalar) *Point {
	x, y := curve.ScalarMult(p.x, p.y, k.Encode())
	return &Point{x: x, y: y}
}

// BaseMul returns k·G.
func BaseMul(k *Scalar) *Point {
	x, y := curve.ScalarBaseMult(k.Encode())
	return &Point{x: x, y: y}
}

// Encode returns the 33-byte compressed SEC1 encoding of the point.
// The identity encodes as 33 zero bytes.
func (p *Point) Encode() []byte {
	if p.IsInfinity() {
		return make([]byte, PointLen)
	}
	return elliptic.MarshalCompressed(curve, p.x, p.y)
}

// DecodePoint parses a 33-byte compressed encoding, rejecting prefixes
// other than 0x02/0x03, x ≥ p, and x with no point on the curve.
func DecodePoint(b []byte) (*Point, error) {
	if len(b) != PointLen {
		return nil, fmt.Errorf("%w: length %d", ErrInvalidPoint, len(b))
	}
	if bytes.Equal(b, make([]byte, PointLen)) {
		return Infinity(), nil
	}
	if b[0] != 0x02 && b[0] != 0x03 {
		return nil, fmt.Errorf("%w: prefix 0x%02x", ErrInvalidPoint, b[0])
	}
	if bytes.Compare(b[1:], pBytes) >= 0 {
		return nil, fmt.Errorf("%w: x out of range", ErrInvalidPoint)
	}
	x, y := elliptic.UnmarshalCompressed(curve, b)
	if x == nil {
		return nil, fmt.Errorf("%w: x not on curve", ErrInvalidPoint)
	}
	return &Point{x: x, y: y}, nil
}

// HashToPoint maps arbitrary bytes to a curve point using deterministic
// try-and-increment: candidates x = H(domain, msg, ctr) are tried until
// one lies on the curve (expected two attempts), taking the even-y root.
// The discrete log of the result with respect to G is unknown, which is
// what the threshold VRF construction requires.
func HashToPoint(msg []byte) *Point {
	var ctrBuf [8]byte
	enc := make([]byte, PointLen)
	enc[0] = 0x02
	for ctr := uint64(0); ; ctr++ {
		binary.BigEndian.PutUint64(ctrBuf[:], ctr)
		d := hash.Sum(hash.DomainHashToCurve, msg, ctrBuf[:])
		copy(enc[1:], d[:])
		// Since p ≡ 3 (mod 4) the square root is unique up to sign, so
		// the 0x02 decoding is the even-y root of x³ − 3x + b; x ≥ p and
		// non-residues decode to nil.
		if x, y := elliptic.UnmarshalCompressed(curve, enc); x != nil {
			return &Point{x: x, y: y}
		}
	}
}

// RandomPoint returns r·G for a uniformly random scalar r, together with r.
// Used only by tests and key generation.
func RandomPoint(rng io.Reader) (*Scalar, *Point, error) {
	s, err := RandomScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	return s, BaseMul(s), nil
}

// Scalar is an element of Z_N, the scalar field of the group.
// Scalars are immutable once created.
type Scalar struct {
	v *big.Int // always reduced to [0, N)
}

// NewScalar returns the scalar v mod N.
func NewScalar(v *big.Int) *Scalar { return &Scalar{v: new(big.Int).Mod(v, N)} }

// ScalarFromUint64 returns the scalar for a small integer.
func ScalarFromUint64(v uint64) *Scalar { return &Scalar{v: new(big.Int).SetUint64(v)} }

// ZeroScalar returns 0.
func ZeroScalar() *Scalar { return &Scalar{v: new(big.Int)} }

// OneScalar returns 1.
func OneScalar() *Scalar { return &Scalar{v: big.NewInt(1)} }

// RandomScalar returns a uniformly random element of Z_N (crypto/rand
// when rng is nil).
func RandomScalar(rng io.Reader) (*Scalar, error) {
	if rng == nil {
		rng = rand.Reader
	}
	buf := make([]byte, ScalarLen)
	for {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, fmt.Errorf("ec: sampling scalar: %w", err)
		}
		// Rejection sampling keeps the distribution exactly uniform;
		// the retry probability is < 2^-32 for P-256.
		if v := new(big.Int).SetBytes(buf); v.Cmp(N) < 0 {
			return &Scalar{v: v}, nil
		}
	}
}

// ScalarFromBytesWide reduces a byte string mod N. Feed it at least 48
// bytes where the result must be close to uniform (a 64-byte input
// leaves a bias below 2^-256).
func ScalarFromBytesWide(b []byte) *Scalar { return NewScalar(new(big.Int).SetBytes(b)) }

// IsZero reports whether s == 0.
func (s *Scalar) IsZero() bool { return s.v.Sign() == 0 }

// Equal reports whether two scalars are equal.
func (s *Scalar) Equal(t *Scalar) bool { return s.v.Cmp(t.v) == 0 }

// Add returns s + t mod N.
func (s *Scalar) Add(t *Scalar) *Scalar { return NewScalar(new(big.Int).Add(s.v, t.v)) }

// Sub returns s − t mod N.
func (s *Scalar) Sub(t *Scalar) *Scalar { return NewScalar(new(big.Int).Sub(s.v, t.v)) }

// Mul returns s · t mod N.
func (s *Scalar) Mul(t *Scalar) *Scalar { return NewScalar(new(big.Int).Mul(s.v, t.v)) }

// Neg returns −s mod N.
func (s *Scalar) Neg() *Scalar { return NewScalar(new(big.Int).Neg(s.v)) }

// Inv returns s⁻¹ mod N. Panics if s is zero (programmer error: the
// callers divide only by pairwise-distinct evaluation points).
func (s *Scalar) Inv() *Scalar {
	if s.IsZero() {
		panic("ec: inverse of zero scalar")
	}
	return &Scalar{v: new(big.Int).ModInverse(s.v, N)}
}

// Encode returns the 32-byte big-endian encoding.
func (s *Scalar) Encode() []byte { return s.v.FillBytes(make([]byte, ScalarLen)) }

// DecodeScalar parses a 32-byte big-endian scalar; values ≥ N are
// rejected so that encodings are canonical.
func DecodeScalar(b []byte) (*Scalar, error) {
	if len(b) != ScalarLen {
		return nil, fmt.Errorf("%w: length %d", ErrInvalidScalar, len(b))
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(N) >= 0 {
		return nil, fmt.Errorf("%w: value >= group order", ErrInvalidScalar)
	}
	return &Scalar{v: v}, nil
}

// Big returns a copy of the underlying integer.
func (s *Scalar) Big() *big.Int { return new(big.Int).Set(s.v) }

// String returns a short debug form.
func (s *Scalar) String() string { return s.v.Text(16) }
