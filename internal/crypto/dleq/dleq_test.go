package dleq

import (
	"bytes"
	"crypto/rand"
	"testing"

	"icc/internal/crypto/ec"
)

func setup(t *testing.T) (x *ec.Scalar, base2, pub1, pub2 *ec.Point) {
	t.Helper()
	x, err := ec.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	base2 = ec.HashToPoint([]byte("message to sign"))
	pub1 = ec.BaseMul(x)
	pub2 = base2.Mul(x)
	return x, base2, pub1, pub2
}

func TestProveVerify(t *testing.T) {
	x, base2, pub1, pub2 := setup(t)
	ctx := []byte("round 7 beacon share")
	p := Prove(x, base2, pub1, pub2, ctx)
	if err := Verify(p, base2, pub1, pub2, ctx); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

func TestVerifyRejectsWrongExponent(t *testing.T) {
	x, base2, pub1, _ := setup(t)
	// pub2 computed with a different exponent.
	y, _ := ec.RandomScalar(rand.Reader)
	badPub2 := base2.Mul(y)
	p := Prove(x, base2, pub1, badPub2, nil)
	if err := Verify(p, base2, pub1, badPub2, nil); err == nil {
		t.Fatal("proof over mismatched exponents verified")
	}
}

func TestVerifyRejectsWrongContext(t *testing.T) {
	x, base2, pub1, pub2 := setup(t)
	p := Prove(x, base2, pub1, pub2, []byte("ctx-a"))
	if err := Verify(p, base2, pub1, pub2, []byte("ctx-b")); err == nil {
		t.Fatal("proof verified under a different context")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	x, base2, pub1, pub2 := setup(t)
	p := Prove(x, base2, pub1, pub2, nil)
	tampered := &Proof{C: p.C, Z: p.Z.Add(ec.OneScalar())}
	if err := Verify(tampered, base2, pub1, pub2, nil); err == nil {
		t.Fatal("tampered proof verified")
	}
	if err := Verify(&Proof{}, base2, pub1, pub2, nil); err == nil {
		t.Fatal("empty proof verified")
	}
	if err := Verify(nil, base2, pub1, pub2, nil); err == nil {
		t.Fatal("nil proof verified")
	}
}

func TestVerifyRejectsSwappedBases(t *testing.T) {
	x, base2, pub1, pub2 := setup(t)
	p := Prove(x, base2, pub1, pub2, nil)
	other := ec.HashToPoint([]byte("different base"))
	if err := Verify(p, other, pub1, pub2, nil); err == nil {
		t.Fatal("proof verified under a different second base")
	}
}

func TestProveIsDeterministic(t *testing.T) {
	x, base2, pub1, pub2 := setup(t)
	a := Prove(x, base2, pub1, pub2, []byte("ctx"))
	b := Prove(x, base2, pub1, pub2, []byte("ctx"))
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("equal inputs gave different proofs")
	}
	if nonce(x, base2, []byte("ctx")).Equal(nonce(x, base2, []byte("ctx2"))) {
		t.Fatal("different contexts gave the same nonce")
	}
	other := ec.HashToPoint([]byte("another message"))
	if nonce(x, base2, []byte("ctx")).Equal(nonce(x, other, []byte("ctx"))) {
		t.Fatal("different bases gave the same nonce")
	}
	y, _ := ec.RandomScalar(rand.Reader)
	if nonce(x, base2, nil).Equal(nonce(y, base2, nil)) {
		t.Fatal("different secrets gave the same nonce")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	x, base2, pub1, pub2 := setup(t)
	p := Prove(x, base2, pub1, pub2, []byte("ctx"))
	enc := p.Encode()
	if len(enc) != ProofLen {
		t.Fatalf("encoded length %d, want %d", len(enc), ProofLen)
	}
	q, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(q, base2, pub1, pub2, []byte("ctx")); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
	if _, err := Decode(enc[:10]); err == nil {
		t.Fatal("short encoding accepted")
	}
}

func BenchmarkProve(b *testing.B) {
	x, _ := ec.RandomScalar(rand.Reader)
	base2 := ec.HashToPoint([]byte("m"))
	pub1, pub2 := ec.BaseMul(x), base2.Mul(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prove(x, base2, pub1, pub2, nil)
	}
}

func BenchmarkVerify(b *testing.B) {
	x, _ := ec.RandomScalar(rand.Reader)
	base2 := ec.HashToPoint([]byte("m"))
	pub1, pub2 := ec.BaseMul(x), base2.Mul(x)
	p := Prove(x, base2, pub1, pub2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(p, base2, pub1, pub2, nil); err != nil {
			b.Fatal(err)
		}
	}
}
