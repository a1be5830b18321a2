// Package typepre is a from-scratch, stdlib-only Go implementation of the
// type-and-identity-based proxy re-encryption scheme of Ibraimi, Tang,
// Hartel and Jonker ("A Type-and-Identity-based Proxy Re-Encryption Scheme
// and its Application in Healthcare", 2008), together with every substrate
// the construction depends on and the Personal Health Record application
// the paper builds on top of it.
//
// # What the scheme does
//
// A delegator (say, the patient Alice) holds ONE identity-based key pair.
// She categorizes her messages into types — "illness-history",
// "food-statistics", "emergency" — and can hand a proxy a re-encryption key
// that converts exactly the ciphertexts of one type toward one delegatee.
// The proxy learns nothing; a corrupted proxy colluding with the delegatee
// recovers at most the "type key" for the delegated type, never Alice's
// private key and never other types (the paper's Theorem 1).
//
// # Layout
//
//   - package typepre (this package): public facade
//   - internal/bn254: the BN254 bilinear group (fields, curves, optimal ate
//     pairing) implemented on math/big
//   - internal/ibe: the Boneh–Franklin IBE the scheme modifies
//   - internal/core: the paper's scheme (Encrypt1/Decrypt1/Pextract/Preenc)
//   - internal/hybrid: KEM/DEM byte-payload encryption (AES-256-GCM)
//   - internal/baselines/...: the related-work schemes (BBS, Dodis–Ivan,
//     AFGH, Green–Ateniese) used by the comparison experiments
//   - internal/games: executable security games (IND-ID-CPA, one-wayness,
//     IND-ID-DR-CPA of §4.2)
//   - internal/phr: the §5 PHR disclosure service
//
// # Quick start
//
//	kgc1, _ := typepre.Setup("hospital-kgc", nil)
//	kgc2, _ := typepre.Setup("clinic-kgc", nil)
//
//	alice := typepre.NewDelegator(kgc1.Extract("alice@hospital.example"))
//	bobKey := kgc2.Extract("bob@clinic.example")
//
//	ct, _ := typepre.EncryptBytes(alice, []byte("blood type O−"), "emergency", nil)
//	rk, _ := alice.Delegate(kgc2.Params(), "bob@clinic.example", "emergency", nil)
//
//	rct, _ := typepre.ReEncryptBytes(ct, rk)          // at the proxy
//	msg, _ := typepre.DecryptBytesReEncrypted(bobKey, rct) // at Bob
//
// SECURITY NOTE: the pairing arithmetic is not constant time (math/big).
// The repository reproduces the paper's construction and its systems
// behavior; it is not a hardened production cryptography library.
//
// phrlint:root the module's public API (README "Quick start")
package typepre
