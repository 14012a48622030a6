package ec

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// Known-answer values for small multiples of the P-256 base point
// (NIST test vectors).
func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("bad hex " + s)
	}
	return v
}

var (
	kat2Gx = mustHex("7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978")
	kat2Gy = mustHex("07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1")
	kat3Gx = mustHex("5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c")
	kat3Gy = mustHex("8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032")
	katGx  = mustHex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
	katGy  = mustHex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
)

func TestGeneratorOnCurve(t *testing.T) {
	if !Generator().IsOnCurve() {
		t.Fatal("generator not on curve")
	}
}

func TestDoubleKnownAnswer(t *testing.T) {
	g2 := Generator().Add(Generator())
	if g2.x.Cmp(kat2Gx) != 0 || g2.y.Cmp(kat2Gy) != 0 {
		t.Fatalf("2G mismatch: got (%s, %s)", g2.x.Text(16), g2.y.Text(16))
	}
	if !BaseMul(ScalarFromUint64(2)).Equal(g2) {
		t.Fatal("BaseMul(2) != G+G")
	}
}

func TestSmallMultiplesKnownAnswer(t *testing.T) {
	if g := Generator(); g.x.Cmp(katGx) != 0 || g.y.Cmp(katGy) != 0 {
		t.Fatal("generator is not the P-256 base point")
	}
	g3 := BaseMul(ScalarFromUint64(3))
	if g3.x.Cmp(kat3Gx) != 0 || g3.y.Cmp(kat3Gy) != 0 {
		t.Fatalf("3G mismatch: got (%s, %s)", g3.x.Text(16), g3.y.Text(16))
	}
	// (n−1)·G = −G = (Gx, p − Gy).
	gn := BaseMul(NewScalar(new(big.Int).Sub(N, big.NewInt(1))))
	if gn.x.Cmp(katGx) != 0 || gn.y.Cmp(new(big.Int).Sub(P, katGy)) != 0 {
		t.Fatalf("(n-1)G mismatch: got (%s, %s)", gn.x.Text(16), gn.y.Text(16))
	}
}

func TestMulMatchesRepeatedAdd(t *testing.T) {
	g := Generator()
	acc := Infinity()
	for k := uint64(0); k <= 20; k++ {
		got := g.Mul(ScalarFromUint64(k))
		if !got.Equal(acc) {
			t.Fatalf("k=%d: Mul does not match repeated addition", k)
		}
		if !got.IsOnCurve() {
			t.Fatalf("k=%d: result off curve", k)
		}
		acc = acc.Add(g)
	}
}

func TestBaseMulMatchesMul(t *testing.T) {
	for i := 0; i < 20; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !BaseMul(k).Equal(Generator().Mul(k)) {
			t.Fatalf("BaseMul mismatch for k=%s", k)
		}
	}
}

func TestOrderAnnihilates(t *testing.T) {
	// N*G must be the identity; (N-1)*G must be -G.
	nMinus1 := NewScalar(new(big.Int).Sub(N, big.NewInt(1)))
	if !BaseMul(nMinus1).Equal(Generator().Neg()) {
		t.Fatal("(N-1)*G != -G")
	}
	if !BaseMul(nMinus1).Add(Generator()).IsInfinity() {
		t.Fatal("N*G != infinity")
	}
}

func TestAddInverse(t *testing.T) {
	_, p, err := RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Add(p.Neg()).IsInfinity() {
		t.Fatal("P + (-P) != infinity")
	}
	if !p.Sub(p).IsInfinity() {
		t.Fatal("P - P != infinity")
	}
	if !p.Add(Infinity()).Equal(p) {
		t.Fatal("P + 0 != P")
	}
	if !Infinity().Add(p).Equal(p) {
		t.Fatal("0 + P != P")
	}
}

func TestScalarMulHomomorphic(t *testing.T) {
	// (a+b)*G == a*G + b*G for random a, b.
	f := func(aRaw, bRaw [32]byte) bool {
		a := ScalarFromBytesWide(aRaw[:])
		b := ScalarFromBytesWide(bRaw[:])
		lhs := BaseMul(a.Add(b))
		rhs := BaseMul(a).Add(BaseMul(b))
		return lhs.Equal(rhs)
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestScalarMulAssociative(t *testing.T) {
	// (a*b)*G == a*(b*G).
	a, _ := RandomScalar(rand.Reader)
	b, _ := RandomScalar(rand.Reader)
	lhs := BaseMul(a.Mul(b))
	rhs := BaseMul(b).Mul(a)
	if !lhs.Equal(rhs) {
		t.Fatal("(a*b)*G != a*(b*G)")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i := 0; i < 20; i++ {
		_, p, err := RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		q, err := DecodePoint(p.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !q.Equal(p) {
			t.Fatal("round-trip mismatch")
		}
	}
	// Identity round-trips too.
	q, err := DecodePoint(Infinity().Encode())
	if err != nil || !q.IsInfinity() {
		t.Fatalf("infinity round-trip failed: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 32),
		append([]byte{0x05}, make([]byte, 32)...), // bad prefix
		func() []byte { // x = p (out of range)
			b := make([]byte, 33)
			b[0] = 0x02
			P.FillBytes(b[1:])
			return b
		}(),
		func() []byte { // uncompressed prefix with a valid x
			b := Generator().Encode()
			b[0] = 0x04
			return b
		}(),
		offCurveX(t), // x with no point on the curve
	}
	for i, c := range cases {
		if _, err := DecodePoint(c); err == nil {
			t.Fatalf("case %d: expected decode error", i)
		}
	}
}

// offCurveX returns the compressed encoding 0x02‖x for x = 1, which is
// below p but has no point on the curve: x³ − 3x + b is a non-residue.
func offCurveX(t *testing.T) []byte {
	x := big.NewInt(1)
	rhs := new(big.Int).Exp(x, big.NewInt(3), P)
	rhs.Sub(rhs, new(big.Int).Mul(big.NewInt(3), x))
	rhs.Add(rhs, curve.Params().B)
	rhs.Mod(rhs, P)
	if big.Jacobi(rhs, P) != -1 {
		t.Fatal("x = 1 is on the curve")
	}
	b := make([]byte, PointLen)
	b[0] = 0x02
	x.FillBytes(b[1:])
	return b
}

func TestHashToPointDeterministicAndOnCurve(t *testing.T) {
	p1 := HashToPoint([]byte("round 1 beacon"))
	p2 := HashToPoint([]byte("round 1 beacon"))
	if !p1.Equal(p2) {
		t.Fatal("HashToPoint not deterministic")
	}
	if !p1.IsOnCurve() || p1.IsInfinity() {
		t.Fatal("HashToPoint result invalid")
	}
	if p1.y.Bit(0) != 0 {
		t.Fatal("HashToPoint did not take the even-y root")
	}
	p3 := HashToPoint([]byte("round 2 beacon"))
	if p1.Equal(p3) {
		t.Fatal("distinct messages mapped to same point")
	}
}

func TestScalarFieldAlgebra(t *testing.T) {
	a, _ := RandomScalar(rand.Reader)
	b, _ := RandomScalar(rand.Reader)
	if !a.Add(b).Sub(b).Equal(a) {
		t.Fatal("a+b-b != a")
	}
	if !a.Mul(b).Mul(b.Inv()).Equal(a) {
		t.Fatal("a*b*b^-1 != a")
	}
	if !a.Add(a.Neg()).IsZero() {
		t.Fatal("a + (-a) != 0")
	}
	if !a.Mul(OneScalar()).Equal(a) {
		t.Fatal("a*1 != a")
	}
	if !a.Mul(ZeroScalar()).IsZero() {
		t.Fatal("a*0 != 0")
	}
}

func TestScalarEncodeDecode(t *testing.T) {
	a, _ := RandomScalar(rand.Reader)
	b, err := DecodeScalar(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("scalar round-trip mismatch")
	}
	// Non-canonical (>= N) must be rejected.
	raw := make([]byte, 32)
	N.FillBytes(raw)
	if _, err := DecodeScalar(raw); err == nil {
		t.Fatal("expected rejection of scalar >= N")
	}
	if _, err := DecodeScalar([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected rejection of short scalar")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Inv of zero")
		}
	}()
	ZeroScalar().Inv()
}

func BenchmarkBaseMul(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaseMul(k)
	}
}

func BenchmarkPointMul(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	p := HashToPoint([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Mul(k)
	}
}

func BenchmarkHashToPoint(b *testing.B) {
	msg := []byte("beacon round payload")
	for i := 0; i < b.N; i++ {
		HashToPoint(msg)
	}
}
