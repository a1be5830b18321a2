package games

import (
	"errors"
	"io"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/ibe"
)

// This file contains reference adversaries used by the test suite to
// validate the challengers. They are calibration instruments, not attacks:
// a sound game must (1) give a guessing adversary no advantage, (2) give an
// adversary with illegitimately obtained key material full advantage, and
// (3) reject adversaries that violate the admissibility constraints.

// GuessingAdversary plays honestly and guesses at random: expected
// advantage 0.
type GuessingAdversary struct {
	rng io.Reader
}

// NewGuessingAdversary returns a fresh guessing adversary.
func NewGuessingAdversary(rng io.Reader) *GuessingAdversary {
	return &GuessingAdversary{rng: rng}
}

// Phase1 picks two random messages and a fresh identity.
func (a *GuessingAdversary) Phase1(c *DRChallenger) (*bn254.GT, *bn254.GT, core.Type, string, error) {
	m0, err := bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	m1, err := bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	return m0, m1, "challenge-type", "target@example.com", nil
}

// Phase2 flips a coin.
func (a *GuessingAdversary) Phase2(c *DRChallenger, ct *core.Ciphertext) (int, error) {
	return RandomBit(a.rng)
}

// SideQueryAdversary exercises every oracle on NON-challenge identities
// and types before guessing randomly. Legitimate queries must not trip the
// constraints, and must not help: expected advantage 0.
type SideQueryAdversary struct {
	rng io.Reader
	m0  *bn254.GT
	m1  *bn254.GT
}

// NewSideQueryAdversary returns a fresh side-query adversary.
func NewSideQueryAdversary(rng io.Reader) *SideQueryAdversary {
	return &SideQueryAdversary{rng: rng}
}

// Phase1 runs one of each oracle query on unrelated principals.
func (a *SideQueryAdversary) Phase1(c *DRChallenger) (*bn254.GT, *bn254.GT, core.Type, string, error) {
	if _, err := c.Extract1("bystander1@example.com"); err != nil {
		return nil, nil, "", "", err
	}
	if _, err := c.Extract2("bystander2@example.com"); err != nil {
		return nil, nil, "", "", err
	}
	// Proxy key from the future challenge identity for a DIFFERENT type:
	// explicitly allowed and must not help.
	if _, err := c.Pextract("target@example.com", "bystander2@example.com", "other-type"); err != nil {
		return nil, nil, "", "", err
	}
	m, err := bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	if _, err := c.Preenc(m, "third-type", "target@example.com", "bystander3@example.com"); err != nil {
		return nil, nil, "", "", err
	}

	a.m0, err = bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	a.m1, err = bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	return a.m0, a.m1, "challenge-type", "target@example.com", nil
}

// Phase2 keeps querying on unrelated principals, then guesses randomly.
func (a *SideQueryAdversary) Phase2(c *DRChallenger, ct *core.Ciphertext) (int, error) {
	if _, err := c.Extract1("bystander4@example.com"); err != nil {
		return 0, err
	}
	return RandomBit(a.rng)
}

// KeyThiefAdversary receives the challenge identity's private key out of
// band (modeling a fully broken scheme or a stolen key) and therefore wins
// every game. It validates that the challenger's win accounting works.
type KeyThiefAdversary struct {
	rng    io.Reader
	stolen *ibe.PrivateKey
	m0, m1 *bn254.GT
}

// NewKeyThiefAdversary returns an adversary that will be handed the target
// key by the test harness via StealKey.
func NewKeyThiefAdversary(rng io.Reader) *KeyThiefAdversary {
	return &KeyThiefAdversary{rng: rng}
}

// StealKey hands the adversary the challenge identity's private key.
func (a *KeyThiefAdversary) StealKey(k *ibe.PrivateKey) { a.stolen = k }

// Phase1 picks the challenge tuple.
func (a *KeyThiefAdversary) Phase1(c *DRChallenger) (*bn254.GT, *bn254.GT, core.Type, string, error) {
	var err error
	a.m0, err = bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	a.m1, err = bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	return a.m0, a.m1, "challenge-type", "target@example.com", nil
}

// Phase2 decrypts the challenge with the stolen key and answers exactly.
func (a *KeyThiefAdversary) Phase2(c *DRChallenger, ct *core.Ciphertext) (int, error) {
	if a.stolen == nil {
		return 0, errors.New("games: key thief has no key")
	}
	d := core.NewDelegator(a.stolen)
	m, err := d.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	if m.Equal(a.m0) {
		return 0, nil
	}
	return 1, nil
}

// CheatingExtractAdversary extracts the challenge identity in Phase 1 —
// the challenger must reject the challenge (constraint (a)).
type CheatingExtractAdversary struct {
	rng io.Reader
}

// NewCheatingExtractAdversary returns the constraint-(a) violator.
func NewCheatingExtractAdversary(rng io.Reader) *CheatingExtractAdversary {
	return &CheatingExtractAdversary{rng: rng}
}

// Phase1 extracts the identity it will then name as the challenge.
func (a *CheatingExtractAdversary) Phase1(c *DRChallenger) (*bn254.GT, *bn254.GT, core.Type, string, error) {
	if _, err := c.Extract1("target@example.com"); err != nil {
		return nil, nil, "", "", err
	}
	m0, err := bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	m1, err := bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	return m0, m1, "t", "target@example.com", nil
}

// Phase2 is unreachable when the challenger enforces constraint (a).
func (a *CheatingExtractAdversary) Phase2(c *DRChallenger, ct *core.Ciphertext) (int, error) {
	return 0, nil
}

// CollusionPairAdversary extracts the delegatee key AND requests the proxy
// key for the challenge pair (constraint (b) violation): the challenger
// must refuse one of the two queries or the challenge.
type CollusionPairAdversary struct {
	rng io.Reader
}

// NewCollusionPairAdversary returns the constraint-(b) violator.
func NewCollusionPairAdversary(rng io.Reader) *CollusionPairAdversary {
	return &CollusionPairAdversary{rng: rng}
}

// Phase1 sets up the forbidden combination.
func (a *CollusionPairAdversary) Phase1(c *DRChallenger) (*bn254.GT, *bn254.GT, core.Type, string, error) {
	if _, err := c.Extract2("accomplice@example.com"); err != nil {
		return nil, nil, "", "", err
	}
	if _, err := c.Pextract("target@example.com", "accomplice@example.com", "t"); err != nil {
		return nil, nil, "", "", err
	}
	m0, err := bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	m1, err := bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	return m0, m1, "t", "target@example.com", nil
}

// Phase2 would decrypt via the collusion, but the challenge is refused.
func (a *CollusionPairAdversary) Phase2(c *DRChallenger, ct *core.Ciphertext) (int, error) {
	return 0, nil
}

// OtherTypeColluderAdversary holds a full collusion (delegatee key + proxy
// key) for a DIFFERENT type than the challenge. This is admissible — and
// by Theorem 1 it must not help: expected advantage 0. This adversary is
// the empirical content of the paper's fine-grainedness claim.
type OtherTypeColluderAdversary struct {
	rng      io.Reader
	m0, m1   *bn254.GT
	typeKey  *core.TypeKey
	otherKey *core.TypeKey
}

// NewOtherTypeColluderAdversary returns the admissible colluder.
func NewOtherTypeColluderAdversary(rng io.Reader) *OtherTypeColluderAdversary {
	return &OtherTypeColluderAdversary{rng: rng}
}

// Phase1 assembles the other-type collusion.
func (a *OtherTypeColluderAdversary) Phase1(c *DRChallenger) (*bn254.GT, *bn254.GT, core.Type, string, error) {
	delegateeKey, err := c.Extract2("accomplice@example.com")
	if err != nil {
		return nil, nil, "", "", err
	}
	rk, err := c.Pextract("target@example.com", "accomplice@example.com", "other-type")
	if err != nil {
		return nil, nil, "", "", err
	}
	a.typeKey, err = core.RecoverTypeKey(rk, delegateeKey)
	if err != nil {
		return nil, nil, "", "", err
	}
	a.m0, err = bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	a.m1, err = bn254.RandomGT(a.rng)
	if err != nil {
		return nil, nil, "", "", err
	}
	return a.m0, a.m1, "challenge-type", "target@example.com", nil
}

// Phase2 tries the other-type key on the challenge; because the type
// exponents differ, the "decryption" is noise and carries no information
// about b. The adversary still plays the best strategy available to it:
// if the noise happens to equal m0 or m1 it answers accordingly, else
// it guesses.
func (a *OtherTypeColluderAdversary) Phase2(c *DRChallenger, ct *core.Ciphertext) (int, error) {
	forged := *ct
	forged.Type = "other-type" // try to make the key "fit"
	m, err := core.DecryptWithTypeKey(a.typeKey, &forged)
	if err == nil {
		if m.Equal(a.m0) {
			return 0, nil
		}
		if m.Equal(a.m1) {
			return 1, nil
		}
	}
	m2, err := core.DecryptWithTypeKey(a.typeKey, ct)
	if err == nil {
		if m2.Equal(a.m0) {
			return 0, nil
		}
		if m2.Equal(a.m1) {
			return 1, nil
		}
	}
	return RandomBit(a.rng)
}

// Compile-time interface checks.
var (
	_ DRCPAAdversary = (*GuessingAdversary)(nil)
	_ DRCPAAdversary = (*SideQueryAdversary)(nil)
	_ DRCPAAdversary = (*KeyThiefAdversary)(nil)
	_ DRCPAAdversary = (*CheatingExtractAdversary)(nil)
	_ DRCPAAdversary = (*CollusionPairAdversary)(nil)
	_ DRCPAAdversary = (*OtherTypeColluderAdversary)(nil)
)
