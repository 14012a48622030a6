package keys

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/bls"
	"icc/internal/crypto/ec"
	"icc/internal/crypto/multisig"
	"icc/internal/crypto/sig"
	"icc/internal/crypto/thresig"
	"icc/internal/types"
)

// The JSON forms below exist so that cmd/icckeygen can write key files
// that cmd/iccnode reads back; all binary values are hex strings. The
// cert_scheme field selects how the notary/final key and secret hex
// strings decode: ed25519 material under "multisig", BLS12-381 material
// under "bls". Files written before the field existed decode as
// multisig (the historical scheme).
//
// The beacon_curve field names the group the beacon key material lives
// in. Both files must carry the current value: key files from before the
// beacon moved to P-256 hold secp256k1 points and scalars that would
// otherwise decode into wrong P-256 values without any error.

// beaconCurve is the beacon_curve value of key files this build reads.
const beaconCurve = "p256"

// ErrStaleKeyFile reports a key file whose beacon material belongs to a
// different (or unnamed) curve.
var ErrStaleKeyFile = errors.New("keys: beacon key material is not for curve " + beaconCurve + "; regenerate the key files with icckeygen")

func checkBeaconCurve(curve string) error {
	if curve != beaconCurve {
		return fmt.Errorf("%w (file has beacon_curve %q)", ErrStaleKeyFile, curve)
	}
	return nil
}

type jsonPublic struct {
	N           int      `json:"n"`
	T           int      `json:"t"`
	CertScheme  string   `json:"cert_scheme,omitempty"`
	BeaconCurve string   `json:"beacon_curve"`
	Auth        []string `json:"auth_keys"`
	Notary      []string `json:"notary_keys"`
	Final       []string `json:"final_keys"`
	BeaconGlob  string   `json:"beacon_global"`
	BeaconShare []string `json:"beacon_share_keys"`
	GenesisSeed string   `json:"genesis_seed"`
}

type jsonPrivate struct {
	Index       int    `json:"index"`
	CertScheme  string `json:"cert_scheme,omitempty"`
	BeaconCurve string `json:"beacon_curve"`
	Auth        string `json:"auth_sk"`
	Notary      string `json:"notary_sk"`
	Final       string `json:"final_sk"`
	Beacon      string `json:"beacon_sk"`
}

func hexKeys[T ~[]byte](ks []T) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = hex.EncodeToString(k)
	}
	return out
}

func unhexKeys(ss []string) ([]sig.PublicKey, error) {
	out := make([]sig.PublicKey, len(ss))
	for i, s := range ss {
		b, err := hex.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("keys: bad hex at %d: %w", i, err)
		}
		out[i] = sig.PublicKey(b)
	}
	return out, nil
}

// hexScheme serialises one certificate-scheme instance's public keys.
func hexScheme(s aggsig.Scheme) ([]string, error) {
	switch info := s.(type) {
	case *multisig.PublicInfo:
		return hexKeys(info.Keys), nil
	case *aggsig.BLSInfo:
		out := make([]string, len(info.Keys))
		for i, pk := range info.Keys {
			out[i] = hex.EncodeToString(pk.Encode())
		}
		return out, nil
	default:
		return nil, fmt.Errorf("keys: unserialisable certificate scheme %T", s)
	}
}

// unhexScheme parses one instance's public keys under the named scheme.
func unhexScheme(scheme aggsig.SchemeID, n int, ss []string) (aggsig.Scheme, error) {
	switch scheme {
	case aggsig.SchemeMultisig:
		ks, err := unhexKeys(ss)
		if err != nil {
			return nil, err
		}
		return &multisig.PublicInfo{N: n, Threshold: types.NotaryQuorum(n), Keys: ks}, nil
	case aggsig.SchemeBLS:
		ks := make([]*bls.PublicKey, len(ss))
		for i, s := range ss {
			raw, err := hex.DecodeString(s)
			if err != nil {
				return nil, fmt.Errorf("keys: bad hex at %d: %w", i, err)
			}
			if ks[i], err = bls.DecodePublicKey(raw); err != nil {
				return nil, fmt.Errorf("keys: bls key %d: %w", i, err)
			}
		}
		return &aggsig.BLSInfo{N: n, Q: types.NotaryQuorum(n), Keys: ks}, nil
	default:
		return nil, fmt.Errorf("keys: unknown certificate scheme %s", scheme)
	}
}

// MarshalJSON implements json.Marshaler.
func (p *Public) MarshalJSON() ([]byte, error) {
	shares := make([]string, len(p.Beacon.Shares))
	for i, pt := range p.Beacon.Shares {
		shares[i] = hex.EncodeToString(pt.Encode())
	}
	notary, err := hexScheme(p.Notary)
	if err != nil {
		return nil, err
	}
	final, err := hexScheme(p.Final)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonPublic{
		N:           p.N,
		T:           p.T,
		CertScheme:  p.CertScheme().String(),
		BeaconCurve: beaconCurve,
		Auth:        hexKeys(p.Auth),
		Notary:      notary,
		Final:       final,
		BeaconGlob:  hex.EncodeToString(p.Beacon.Global.Encode()),
		BeaconShare: shares,
		GenesisSeed: hex.EncodeToString(p.GenesisSeed),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Public) UnmarshalJSON(b []byte) error {
	var j jsonPublic
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if err := checkBeaconCurve(j.BeaconCurve); err != nil {
		return err
	}
	scheme, err := aggsig.ParseSchemeID(j.CertScheme)
	if err != nil {
		return err
	}
	auth, err := unhexKeys(j.Auth)
	if err != nil {
		return err
	}
	notary, err := unhexScheme(scheme, j.N, j.Notary)
	if err != nil {
		return err
	}
	final, err := unhexScheme(scheme, j.N, j.Final)
	if err != nil {
		return err
	}
	globRaw, err := hex.DecodeString(j.BeaconGlob)
	if err != nil {
		return fmt.Errorf("keys: beacon global: %w", err)
	}
	glob, err := ec.DecodePoint(globRaw)
	if err != nil {
		return fmt.Errorf("keys: beacon global: %w", err)
	}
	shares := make([]*ec.Point, len(j.BeaconShare))
	for i, s := range j.BeaconShare {
		raw, err := hex.DecodeString(s)
		if err != nil {
			return fmt.Errorf("keys: beacon share %d: %w", i, err)
		}
		if shares[i], err = ec.DecodePoint(raw); err != nil {
			return fmt.Errorf("keys: beacon share %d: %w", i, err)
		}
	}
	seed, err := hex.DecodeString(j.GenesisSeed)
	if err != nil {
		return fmt.Errorf("keys: genesis seed: %w", err)
	}
	p.N, p.T = j.N, j.T
	p.Auth = auth
	p.Notary = notary
	p.Final = final
	p.Beacon = &thresig.PublicInfo{N: j.N, Threshold: types.BeaconQuorum(j.N), Global: glob, Shares: shares}
	p.GenesisSeed = seed
	return nil
}

// hexSigner serialises one certificate-scheme signing key, returning the
// scheme it belongs to.
func hexSigner(s aggsig.Signer) (string, aggsig.SchemeID, error) {
	switch sk := s.(type) {
	case multisig.SecretKey:
		return hex.EncodeToString(sk.Key), aggsig.SchemeMultisig, nil
	case aggsig.BLSSecretKey:
		return hex.EncodeToString(sk.Key.Encode()), aggsig.SchemeBLS, nil
	default:
		return "", 0, fmt.Errorf("keys: unserialisable signing key %T", s)
	}
}

// unhexSigner parses one signing key under the named scheme.
func unhexSigner(scheme aggsig.SchemeID, index int, s string) (aggsig.Signer, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("keys: bad hex: %w", err)
	}
	switch scheme {
	case aggsig.SchemeMultisig:
		return multisig.SecretKey{Index: index, Key: sig.PrivateKey(raw)}, nil
	case aggsig.SchemeBLS:
		sk, err := bls.DecodeSecretKey(raw)
		if err != nil {
			return nil, err
		}
		return aggsig.BLSSecretKey{Index: index, Key: sk}, nil
	default:
		return nil, fmt.Errorf("keys: unknown certificate scheme %s", scheme)
	}
}

// MarshalJSON implements json.Marshaler.
func (p *Private) MarshalJSON() ([]byte, error) {
	notary, scheme, err := hexSigner(p.Notary)
	if err != nil {
		return nil, err
	}
	final, _, err := hexSigner(p.Final)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonPrivate{
		Index:       int(p.Index),
		CertScheme:  scheme.String(),
		BeaconCurve: beaconCurve,
		Auth:        hex.EncodeToString(p.Auth),
		Notary:      notary,
		Final:       final,
		Beacon:      hex.EncodeToString(p.Beacon.Key.Encode()),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Private) UnmarshalJSON(b []byte) error {
	var j jsonPrivate
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if err := checkBeaconCurve(j.BeaconCurve); err != nil {
		return err
	}
	scheme, err := aggsig.ParseSchemeID(j.CertScheme)
	if err != nil {
		return err
	}
	auth, err := hex.DecodeString(j.Auth)
	if err != nil {
		return fmt.Errorf("keys: auth sk: %w", err)
	}
	notary, err := unhexSigner(scheme, j.Index, j.Notary)
	if err != nil {
		return fmt.Errorf("keys: notary sk: %w", err)
	}
	final, err := unhexSigner(scheme, j.Index, j.Final)
	if err != nil {
		return fmt.Errorf("keys: final sk: %w", err)
	}
	beaconRaw, err := hex.DecodeString(j.Beacon)
	if err != nil {
		return fmt.Errorf("keys: beacon sk: %w", err)
	}
	beacon, err := ec.DecodeScalar(beaconRaw)
	if err != nil {
		return fmt.Errorf("keys: beacon sk: %w", err)
	}
	p.Index = types.PartyID(j.Index)
	p.Auth = sig.PrivateKey(auth)
	p.Notary = notary
	p.Final = final
	p.Beacon = thresig.NewSecretShare(j.Index, beacon)
	return nil
}
