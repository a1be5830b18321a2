package typepre

import (
	"io"
	"math/big"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// Re-exported types. Aliases keep the public surface identical to the
// implementing packages while hiding the substrate layout.
type (
	// KGC is a Key Generation Center (one per trust domain).
	KGC = ibe.KGC
	// Params are a KGC's public parameters.
	Params = ibe.Params
	// PrivateKey is an extracted identity key.
	PrivateKey = ibe.PrivateKey
	// Delegator encrypts, categorizes and delegates messages.
	Delegator = core.Delegator
	// Type is a message category.
	Type = core.Type
	// Ciphertext is a typed first-level GT-message ciphertext.
	Ciphertext = core.Ciphertext
	// ReKey is a per-type proxy re-encryption key.
	ReKey = core.ReKey
	// ReCiphertext is a re-encrypted GT-message ciphertext.
	ReCiphertext = core.ReCiphertext
	// TypeKey is the §4.3 jointly recoverable per-type weak key.
	TypeKey = core.TypeKey
	// GT is an element of the pairing target group (the native message
	// space of the scheme).
	GT = bn254.GT
	// HybridCiphertext is a byte-payload (KEM/DEM) ciphertext.
	HybridCiphertext = hybrid.Ciphertext
	// HybridReCiphertext is a re-encrypted byte-payload ciphertext.
	HybridReCiphertext = hybrid.ReCiphertext
)

// Re-exported errors.
var (
	// ErrTypeMismatch: the proxy key does not match the ciphertext type.
	ErrTypeMismatch = core.ErrTypeMismatch
	// ErrDecrypt: malformed decryption inputs.
	ErrDecrypt = core.ErrDecrypt
)

// Setup creates a new Key Generation Center. rng may be nil to use
// crypto/rand.
func Setup(name string, rng io.Reader) (*KGC, error) { return ibe.Setup(name, rng) }

// NewDelegator wraps an extracted private key for use as a delegator.
func NewDelegator(key *PrivateKey) *Delegator { return core.NewDelegator(key) }

// ReEncrypt is the proxy transformation on GT-message ciphertexts (the
// paper's Preenc).
func ReEncrypt(ct *Ciphertext, rk *ReKey) (*ReCiphertext, error) {
	return core.ReEncrypt(ct, rk)
}

// DecryptReEncrypted opens a re-encrypted GT-message ciphertext with the
// delegatee's private key.
func DecryptReEncrypted(sk *PrivateKey, rct *ReCiphertext) (*GT, error) {
	return core.DecryptReEncrypted(sk, rct)
}

// RecoverTypeKey simulates the §4.3 proxy–delegatee collusion, returning
// the per-type weak key.
func RecoverTypeKey(rk *ReKey, delegateeKey *PrivateKey) (*TypeKey, error) {
	return core.RecoverTypeKey(rk, delegateeKey)
}

// DecryptWithTypeKey opens a first-level ciphertext using a recovered type
// key (meaningful only for the key's own type).
func DecryptWithTypeKey(tk *TypeKey, ct *Ciphertext) (*GT, error) {
	return core.DecryptWithTypeKey(tk, ct)
}

// EncryptBytes seals an arbitrary byte payload under the delegator's
// identity and the given type (KEM/DEM composition).
func EncryptBytes(d *Delegator, msg []byte, t Type, rng io.Reader) (*HybridCiphertext, error) {
	return hybrid.Encrypt(d, msg, t, rng)
}

// DecryptBytes opens a byte-payload ciphertext with the delegator's key.
func DecryptBytes(d *Delegator, ct *HybridCiphertext) ([]byte, error) {
	return hybrid.Decrypt(d, ct)
}

// ReEncryptBytes transforms a byte-payload ciphertext at the proxy; the
// cost is independent of the payload size.
func ReEncryptBytes(ct *HybridCiphertext, rk *ReKey) (*HybridReCiphertext, error) {
	return hybrid.ReEncrypt(ct, rk)
}

// DecryptBytesReEncrypted opens a re-encrypted byte-payload ciphertext with
// the delegatee's private key.
func DecryptBytesReEncrypted(sk *PrivateKey, rct *HybridReCiphertext) ([]byte, error) {
	return hybrid.DecryptReEncrypted(sk, rct)
}

// RandomMessage returns a uniformly random GT element (the scheme's native
// message space) for tests, examples and benchmarks.
func RandomMessage(rng io.Reader) (*GT, error) {
	m, err := bn254.RandomGT(rng)
	return m, err
}

// GroupOrder returns the prime order r of the bilinear groups.
func GroupOrder() *big.Int { return new(big.Int).Set(bn254.Order) }

// Serialization round-trips (re-exported).

// UnmarshalCiphertext decodes a Ciphertext.
func UnmarshalCiphertext(data []byte) (*Ciphertext, error) { return core.UnmarshalCiphertext(data) }

// UnmarshalReKey decodes a ReKey.
func UnmarshalReKey(data []byte) (*ReKey, error) { return core.UnmarshalReKey(data) }

// UnmarshalReCiphertext decodes a ReCiphertext.
func UnmarshalReCiphertext(data []byte) (*ReCiphertext, error) {
	return core.UnmarshalReCiphertext(data)
}

// UnmarshalParams decodes KGC public parameters.
func UnmarshalParams(data []byte) (*Params, error) { return ibe.UnmarshalParams(data) }

// UnmarshalPrivateKey decodes a private key and binds it to params.
func UnmarshalPrivateKey(data []byte, params *Params) (*PrivateKey, error) {
	return ibe.UnmarshalPrivateKey(data, params)
}
