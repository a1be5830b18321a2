// Package games implements the security experiments the paper defines:
//
//   - the IND-ID-CPA game for the underlying Boneh–Franklin IBE (§3.2),
//   - the one-wayness game for IBE (§3.2, Definition 6),
//   - the IND-ID-DR-CPA game for the type-and-identity PRE scheme (§4.2)
//     with its Extract1/Extract2/Pextract/Preenc† oracles and the three
//     Phase-1/Phase-2 constraints.
//
// The challengers simulate the protocol honestly and enforce the games'
// admissibility constraints, rejecting adversaries that violate them. They
// are executable security *definitions*: tests use them to check that (a)
// trivial adversaries have no advantage, (b) the constraints actually trip,
// and (c) an adversary given illegitimate key material wins — i.e. the game
// plumbing distinguishes broken schemes from intact ones.
package games

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"typepre/internal/bn254"
	"typepre/internal/core"
	"typepre/internal/ibe"
)

// Errors reported by the challengers.
var (
	// ErrConstraintViolated is returned when the adversary issues a query
	// forbidden by the game definition.
	ErrConstraintViolated = errors.New("games: admissibility constraint violated")
	// ErrProtocol is returned when the adversary misuses the API (e.g.
	// requests a challenge twice).
	ErrProtocol = errors.New("games: protocol misuse")
)

// coin flips one unbiased bit.
func coin(rng io.Reader) (int, error) {
	k, err := bn254.RandomScalar(rng)
	if err != nil {
		return 0, err
	}
	return int(k.Bit(0)), nil
}

// ---------------------------------------------------------------------------
// IND-ID-DR-CPA (§4.2)
// ---------------------------------------------------------------------------

// pextractKey identifies a Pextract query (id, id', t).
type pextractKey struct {
	delegator string
	delegatee string
	typ       core.Type
}

// DRChallenger runs the IND-ID-DR-CPA game. It owns both KGCs and answers
// the adversary's oracle queries, recording them for constraint checks.
type DRChallenger struct {
	kgc1, kgc2 *ibe.KGC
	rng        io.Reader

	extracted1 map[string]bool
	extracted2 map[string]bool
	pextracts  map[pextractKey]bool
	preencs    map[pextractKey]bool

	challenged  bool
	challengeID string
	challengeT  core.Type
	b           int
}

// NewDRChallenger sets up the game (both KGCs). rng may be nil.
func NewDRChallenger(rng io.Reader) (*DRChallenger, error) {
	kgc1, err := ibe.Setup("game-kgc1", rng)
	if err != nil {
		return nil, err
	}
	kgc2, err := ibe.Setup("game-kgc2", rng)
	if err != nil {
		return nil, err
	}
	return &DRChallenger{
		kgc1:       kgc1,
		kgc2:       kgc2,
		rng:        rng,
		extracted1: map[string]bool{},
		extracted2: map[string]bool{},
		pextracts:  map[pextractKey]bool{},
		preencs:    map[pextractKey]bool{},
	}, nil
}

// Params1 returns the public parameters of KGC1 (the delegator domain).
func (c *DRChallenger) Params1() *ibe.Params { return c.kgc1.Params() }

// Params2 returns the public parameters of KGC2 (the delegatee domain).
func (c *DRChallenger) Params2() *ibe.Params { return c.kgc2.Params() }

// Extract1 answers an Extract query against KGC1.
func (c *DRChallenger) Extract1(id string) (*ibe.PrivateKey, error) {
	if c.challenged && id == c.challengeID {
		return nil, fmt.Errorf("%w: Extract1 on the challenge identity", ErrConstraintViolated)
	}
	c.extracted1[id] = true
	return c.kgc1.Extract(id), nil
}

// Extract2 answers an Extract query against KGC2. Constraint (b): if a
// proxy key from the challenge identity and type toward id was issued, the
// key of id must stay hidden.
func (c *DRChallenger) Extract2(id string) (*ibe.PrivateKey, error) {
	if c.challenged {
		k := pextractKey{c.challengeID, id, c.challengeT}
		if c.pextracts[k] {
			return nil, fmt.Errorf("%w: Extract2 on a delegatee of the challenge (id,type)", ErrConstraintViolated)
		}
	}
	c.extracted2[id] = true
	return c.kgc2.Extract(id), nil
}

// Pextract answers a proxy-key query (id → id', t). Constraint (c) forbids
// it when the pair was already used in a Preenc† query; constraint (b)
// forbids, after the challenge, combining it with Extract2(id').
func (c *DRChallenger) Pextract(delegatorID, delegateeID string, t core.Type) (*core.ReKey, error) {
	k := pextractKey{delegatorID, delegateeID, t}
	if c.preencs[k] {
		return nil, fmt.Errorf("%w: Pextract after Preenc† on the same (id,id',t)", ErrConstraintViolated)
	}
	if c.challenged && delegatorID == c.challengeID && t == c.challengeT && c.extracted2[delegateeID] {
		return nil, fmt.Errorf("%w: Pextract toward an extracted delegatee for the challenge (id,type)", ErrConstraintViolated)
	}
	c.pextracts[k] = true
	d := core.NewDelegator(c.kgc1.Extract(delegatorID))
	return d.Delegate(c.kgc2.Params(), delegateeID, t, c.rng)
}

// Preenc answers a Preenc† query: encrypt m under (t, id) and re-encrypt it
// toward id' with a freshly issued (never revealed) proxy key. It reflects
// a curious delegatee's access to re-encryptions of known plaintexts.
func (c *DRChallenger) Preenc(m *bn254.GT, t core.Type, delegatorID, delegateeID string) (*core.ReCiphertext, error) {
	k := pextractKey{delegatorID, delegateeID, t}
	if c.pextracts[k] {
		return nil, fmt.Errorf("%w: Preenc† after Pextract on the same (id,id',t)", ErrConstraintViolated)
	}
	c.preencs[k] = true
	d := core.NewDelegator(c.kgc1.Extract(delegatorID))
	ct, err := d.Encrypt(m, t, c.rng)
	if err != nil {
		return nil, err
	}
	rk, err := d.Delegate(c.kgc2.Params(), delegateeID, t, c.rng)
	if err != nil {
		return nil, err
	}
	return core.ReEncrypt(ct, rk)
}

// Challenge validates the admissibility of (id*, t*) against the recorded
// Phase-1 queries, flips the bit b and returns Encrypt1(m_b, t*, id*).
func (c *DRChallenger) Challenge(m0, m1 *bn254.GT, t core.Type, id string) (*core.Ciphertext, error) {
	if c.challenged {
		return nil, fmt.Errorf("%w: second challenge", ErrProtocol)
	}
	if c.extracted1[id] {
		return nil, fmt.Errorf("%w: challenge identity was extracted", ErrConstraintViolated)
	}
	for k := range c.pextracts {
		if k.delegator == id && k.typ == t && c.extracted2[k.delegatee] {
			return nil, fmt.Errorf("%w: challenge (id,type) delegated to an extracted delegatee", ErrConstraintViolated)
		}
	}
	b, err := coin(c.rng)
	if err != nil {
		return nil, err
	}
	c.b = b
	c.challenged = true
	c.challengeID = id
	c.challengeT = t

	d := core.NewDelegator(c.kgc1.Extract(id))
	m := m0
	if b == 1 {
		m = m1
	}
	return d.Encrypt(m, t, c.rng)
}

// Finish accepts the adversary's guess and reports whether it won.
func (c *DRChallenger) Finish(guess int) (bool, error) {
	if !c.challenged {
		return false, fmt.Errorf("%w: guess before challenge", ErrProtocol)
	}
	return guess == c.b, nil
}

// DRCPAAdversary is the interface adversaries implement for the
// IND-ID-DR-CPA game.
type DRCPAAdversary interface {
	// Phase1 may query the challenger's oracles and must return the
	// challenge tuple (m0, m1, t*, id*).
	Phase1(c *DRChallenger) (m0, m1 *bn254.GT, t core.Type, id string, err error)
	// Phase2 receives the challenge, may query more oracles, and returns
	// the guess bit.
	Phase2(c *DRChallenger, challenge *core.Ciphertext) (int, error)
}

// RunDRCPA executes one IND-ID-DR-CPA game and reports whether the
// adversary won. Constraint violations surface as errors.
func RunDRCPA(adv DRCPAAdversary, rng io.Reader) (bool, error) {
	c, err := NewDRChallenger(rng)
	if err != nil {
		return false, err
	}
	m0, m1, t, id, err := adv.Phase1(c)
	if err != nil {
		return false, err
	}
	ct, err := c.Challenge(m0, m1, t, id)
	if err != nil {
		return false, err
	}
	guess, err := adv.Phase2(c, ct)
	if err != nil {
		return false, err
	}
	return c.Finish(guess)
}

// EstimateAdvantage runs the game n times and returns |wins/n − 1/2|, the
// empirical advantage of the adversary.
func EstimateAdvantage(adv func() DRCPAAdversary, n int, rng io.Reader) (float64, error) {
	wins := 0
	for i := 0; i < n; i++ {
		won, err := RunDRCPA(adv(), rng)
		if err != nil {
			return 0, err
		}
		if won {
			wins++
		}
	}
	return abs(float64(wins)/float64(n) - 0.5), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------------
// IND-ID-CPA for the underlying IBE (§3.2)
// ---------------------------------------------------------------------------

// CPAChallenger runs the IND-ID-CPA game against the modified
// Boneh–Franklin scheme.
type CPAChallenger struct {
	kgc *ibe.KGC
	rng io.Reader

	extracted   map[string]bool
	challenged  bool
	challengeID string
	b           int
}

// NewCPAChallenger sets up the IBE game.
func NewCPAChallenger(rng io.Reader) (*CPAChallenger, error) {
	kgc, err := ibe.Setup("cpa-kgc", rng)
	if err != nil {
		return nil, err
	}
	return &CPAChallenger{kgc: kgc, rng: rng, extracted: map[string]bool{}}, nil
}

// Params returns the game's public parameters.
func (c *CPAChallenger) Params() *ibe.Params { return c.kgc.Params() }

// Extract answers an Extract query.
func (c *CPAChallenger) Extract(id string) (*ibe.PrivateKey, error) {
	if c.challenged && id == c.challengeID {
		return nil, fmt.Errorf("%w: Extract on the challenge identity", ErrConstraintViolated)
	}
	c.extracted[id] = true
	return c.kgc.Extract(id), nil
}

// Challenge flips b and encrypts m_b to id.
func (c *CPAChallenger) Challenge(m0, m1 *bn254.GT, id string) (*ibe.Ciphertext, error) {
	if c.challenged {
		return nil, fmt.Errorf("%w: second challenge", ErrProtocol)
	}
	if c.extracted[id] {
		return nil, fmt.Errorf("%w: challenge identity was extracted", ErrConstraintViolated)
	}
	b, err := coin(c.rng)
	if err != nil {
		return nil, err
	}
	c.b = b
	c.challenged = true
	c.challengeID = id
	m := m0
	if b == 1 {
		m = m1
	}
	return ibe.Encrypt(c.kgc.Params(), id, m, c.rng)
}

// Finish reports whether the guess was right.
func (c *CPAChallenger) Finish(guess int) (bool, error) {
	if !c.challenged {
		return false, fmt.Errorf("%w: guess before challenge", ErrProtocol)
	}
	return guess == c.b, nil
}

// ---------------------------------------------------------------------------
// One-wayness for the underlying IBE (§3.2, Definition 6)
// ---------------------------------------------------------------------------

// OWChallenger runs the one-wayness game: the adversary names an identity
// it has not extracted and must recover a random GT plaintext.
type OWChallenger struct {
	kgc *ibe.KGC
	rng io.Reader

	extracted   map[string]bool
	challenged  bool
	challengeID string
	m           *bn254.GT
}

// NewOWChallenger sets up the one-wayness game.
func NewOWChallenger(rng io.Reader) (*OWChallenger, error) {
	kgc, err := ibe.Setup("ow-kgc", rng)
	if err != nil {
		return nil, err
	}
	return &OWChallenger{kgc: kgc, rng: rng, extracted: map[string]bool{}}, nil
}

// Params returns the game's public parameters.
func (c *OWChallenger) Params() *ibe.Params { return c.kgc.Params() }

// Extract answers an Extract query.
func (c *OWChallenger) Extract(id string) (*ibe.PrivateKey, error) {
	if c.challenged && id == c.challengeID {
		return nil, fmt.Errorf("%w: Extract on the challenge identity", ErrConstraintViolated)
	}
	c.extracted[id] = true
	return c.kgc.Extract(id), nil
}

// Challenge encrypts a fresh random message to id.
func (c *OWChallenger) Challenge(id string) (*ibe.Ciphertext, error) {
	if c.challenged {
		return nil, fmt.Errorf("%w: second challenge", ErrProtocol)
	}
	if c.extracted[id] {
		return nil, fmt.Errorf("%w: challenge identity was extracted", ErrConstraintViolated)
	}
	m, err := bn254.RandomGT(c.rng)
	if err != nil {
		return nil, err
	}
	c.m = m
	c.challenged = true
	c.challengeID = id
	return ibe.Encrypt(c.kgc.Params(), id, m, c.rng)
}

// Finish reports whether the adversary recovered the exact plaintext.
func (c *OWChallenger) Finish(guess *bn254.GT) (bool, error) {
	if !c.challenged {
		return false, fmt.Errorf("%w: guess before challenge", ErrProtocol)
	}
	return guess != nil && guess.Equal(c.m), nil
}

// RandomBit returns an unbiased bit for adversaries that guess randomly.
func RandomBit(rng io.Reader) (int, error) { return coin(rng) }

// RandomExponent returns a random Z*_r exponent (helper for adversaries).
func RandomExponent(rng io.Reader) (*big.Int, error) { return bn254.RandomScalar(rng) }
