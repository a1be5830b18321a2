// Package fp implements the BN254 base field Fp on fixed-width 4×64-bit
// limbs with Montgomery multiplication, replacing the math/big arithmetic
// the pairing stack was originally written against.
//
// The modulus is
//
//	p = 21888242871839275222246405745257275088696311157297823662689037894645226208583
//
// (254 bits). An Element stores the residue x as x·R mod p with R = 2^256,
// little-endian limbs ("Montgomery form"). Products use the "no-carry"
// variant of CIOS (coarsely integrated operand scanning) Montgomery
// multiplication: four unrolled rounds, each adding one row of the
// schoolbook product and cancelling one low limb, with the running value
// in four words and no overflow limb. That is valid because the top limb
// of p is below 2^63 − 1; since p < 2^255, Add needs no fifth limb either.
// Every Go kernel is straight-line code over math/bits.Mul64/Add64/Sub64
// that canonicalizes its result with a mask, not a branch: no loops, no
// heap allocation. On amd64 CPUs with ADX and BMI2, Mul runs an assembly
// version of the same CIOS (mul_amd64.s: MULX with the two carry chains of
// ADCX/ADOX, a CMOV final subtraction); everywhere else, and as the test
// oracle, it runs the Go kernel mulGeneric. The CPU alone picks the kernel
// once at init; there is no flag, build tag or environment switch. The
// fused Fp2 kernels of package bn254 (fp2_amd64.s) expand the same
// assembly product from mont_amd64.h, and its two halves, a 512-bit
// product and one reduction, for lazy reduction.
//
// Unreduced operands: every Element is canonical (< p) except the output
// of AddUnreduced, which is a + b in [0, 2p) with no final subtraction.
// Such a value may only be passed to Mul (or Square), and Mul accepts it:
// because 4p < 2^256, operands below 2p give a Montgomery product
// (a·b + m·p)/R < 4p²/R + p < 2p (m < R), so Mul's one masked
// subtraction still returns the canonical residue (and every round's
// running value stays below a + p < 3p < 2^256, so no round overflows).
// No other kernel takes unreduced input: Add, Sub, Equal and the encoders
// assume canonical limbs. init panics if any of these bounds fails.
//
// Constant-time contract: Add, AddUnreduced, Sub, Neg, Double, Mul,
// Square, Inverse, Sqrt, IsZero, Equal and the Montgomery conversions
// perform an input-independent sequence of word operations (Inverse and
// Sqrt are fixed-window exponentiations by the public constant exponents
// p−2 and (p+1)/4). The ADX Mul kernel keeps the contract: a fixed
// instruction sequence with no table lookup, ending in a CMOV, not a jump;
// its one branch tests useADX, which depends only on the CPU. Conversion
// to/from big.Int and String are NOT constant time and must only see
// public values.
//
// All hard-coded constants are re-derived from the decimal modulus at
// package init and cross-checked; a mismatch panics, so a transcribed
// constant cannot silently corrupt the arithmetic (the same guard idiom the
// parent package uses for its curve constants).
package fp

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Element is an Fp element in Montgomery form. The zero value is the field
// zero. Elements are always kept reduced (< p), so representations are
// canonical and Equal is limb equality.
type Element [4]uint64

// Limbs of the modulus p.
const (
	q0 uint64 = 0x3c208c16d87cfd47
	q1 uint64 = 0x97816a916871ca8d
	q2 uint64 = 0xb85045b68181585d
	q3 uint64 = 0x30644e72e131a029
)

// qInvNeg = -p⁻¹ mod 2^64, the Montgomery reduction constant.
const qInvNeg uint64 = 0x87d20782e4866389

var (
	// rSquare = R² mod p, in raw limbs; multiplying by it converts a raw
	// residue into Montgomery form.
	rSquare = Element{0xf32cfc5b538afa89, 0xb5e71911d44501fb, 0x47ab1eff0a417ff6, 0x06d89f71cab8351f}

	// one is 1 in Montgomery form (R mod p).
	one = Element{0xd35d438dc58f0d9d, 0x0a78eb28f5c70b3d, 0x666ea36f7879462c, 0x0e0a77c19a07df2f}

	// pMinus2 is the Inverse exponent p−2 (Fermat), raw limbs.
	pMinus2 = [4]uint64{0x3c208c16d87cfd45, 0x97816a916871ca8d, 0xb85045b68181585d, 0x30644e72e131a029}

	// pPlus1Over4 is the Sqrt exponent (p+1)/4 (p ≡ 3 mod 4), raw limbs.
	pPlus1Over4 = [4]uint64{0x4f082305b61f3f52, 0x65e05aa45a1c72a3, 0x6e14116da0605617, 0x0c19139cb84c680a}

	// modulus is p as a big.Int, for the conversion shims.
	modulus *big.Int
)

func init() {
	p, ok := new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)
	if !ok {
		panic("fp: bad modulus literal")
	}
	modulus = p

	if limbsFromBig(p) != (Element{q0, q1, q2, q3}) {
		panic("fp: modulus limbs do not match decimal modulus")
	}
	// Preconditions of the kernels: the no-carry Mul needs a top limb of at
	// most 2^63 − 2, and Add/Double drop the carry out of the top limb,
	// which needs p < 2^255. Mul on AddUnreduced outputs (below 2p) needs
	// 4p < 2^256.
	if q3 > 1<<63-2 || p.BitLen() > 255 {
		panic("fp: modulus violates the no-carry Mul or carry-free Add precondition")
	}
	if new(big.Int).Lsh(p, 2).BitLen() > 256 {
		panic("fp: modulus violates the 4p < 2^256 bound of unreduced Mul operands")
	}

	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	pInv := new(big.Int).ModInverse(p, two64)
	if new(big.Int).Mod(new(big.Int).Neg(pInv), two64).Uint64() != qInvNeg {
		panic("fp: qInvNeg does not match -p⁻¹ mod 2^64")
	}

	r := new(big.Int).Lsh(big.NewInt(1), 256)
	rMod := new(big.Int).Mod(r, p)
	if limbsFromBig(rMod) != one {
		panic("fp: Montgomery one does not match R mod p")
	}
	r2 := new(big.Int).Mul(rMod, rMod)
	r2.Mod(r2, p)
	if limbsFromBig(r2) != rSquare {
		panic("fp: rSquare does not match R² mod p")
	}

	if limbsFromBig(new(big.Int).Sub(p, big.NewInt(2))) != pMinus2 {
		panic("fp: pMinus2 does not match p−2")
	}
	pp14 := new(big.Int).Add(p, big.NewInt(1))
	pp14.Rsh(pp14, 2)
	if limbsFromBig(pp14) != pPlus1Over4 {
		panic("fp: pPlus1Over4 does not match (p+1)/4")
	}
}

// Modulus returns a copy of p.
func Modulus() *big.Int { return new(big.Int).Set(modulus) }

// ---------------------------------------------------------------------------
// Assignment and predicates
// ---------------------------------------------------------------------------

// Set assigns a to z and returns z.
func (z *Element) Set(a *Element) *Element {
	*z = *a
	return z
}

// SetZero assigns 0 to z and returns z.
func (z *Element) SetZero() *Element {
	*z = Element{}
	return z
}

// SetOne assigns 1 to z and returns z.
func (z *Element) SetOne() *Element {
	*z = one
	return z
}

// SetUint64 assigns the small integer v (taken mod p) to z and returns z.
func (z *Element) SetUint64(v uint64) *Element {
	*z = Element{v}
	return z.toMont()
}

// IsZero reports whether z == 0. Constant time.
func (z *Element) IsZero() bool {
	return z[0]|z[1]|z[2]|z[3] == 0
}

// IsOne reports whether z == 1. Constant time.
func (z *Element) IsOne() bool {
	return z.Equal(&one)
}

// Equal reports whether z == a. Constant time: representations are
// canonical, so limb equality is field equality.
func (z *Element) Equal(a *Element) bool {
	return (z[0]^a[0])|(z[1]^a[1])|(z[2]^a[2])|(z[3]^a[3]) == 0
}

// ---------------------------------------------------------------------------
// Additive arithmetic (constant time)
// ---------------------------------------------------------------------------

// Add sets z = a + b and returns z.
func (z *Element) Add(a, b *Element) *Element {
	// p < 2^255 (checked at init), so a + b < 2p < 2^256: the sum needs no
	// fifth limb, and one masked subtraction of p canonicalizes it.
	t0, c := bits.Add64(a[0], b[0], 0)
	t1, c := bits.Add64(a[1], b[1], c)
	t2, c := bits.Add64(a[2], b[2], c)
	t3, _ := bits.Add64(a[3], b[3], c)

	s0, bo := bits.Sub64(t0, q0, 0)
	s1, bo := bits.Sub64(t1, q1, bo)
	s2, bo := bits.Sub64(t2, q2, bo)
	s3, bo := bits.Sub64(t3, q3, bo)
	mask := bo - 1 // all-ones iff t ≥ p: keep t − p
	z[0] = t0 ^ (mask & (t0 ^ s0))
	z[1] = t1 ^ (mask & (t1 ^ s1))
	z[2] = t2 ^ (mask & (t2 ^ s2))
	z[3] = t3 ^ (mask & (t3 ^ s3))
	return z
}

// AddUnreduced sets z = a + b without the final subtraction of p and
// returns z. For canonical a and b the result lies in [0, 2p), below 2^256
// since p < 2^255; it is not canonical and may only be an operand of Mul
// or Square (see the package doc).
func (z *Element) AddUnreduced(a, b *Element) *Element {
	var c uint64
	z[0], c = bits.Add64(a[0], b[0], 0)
	z[1], c = bits.Add64(a[1], b[1], c)
	z[2], c = bits.Add64(a[2], b[2], c)
	z[3], _ = bits.Add64(a[3], b[3], c)
	return z
}

// Double sets z = 2a and returns z.
func (z *Element) Double(a *Element) *Element {
	// 2a < 2p < 2^256, so the shift drops no bit.
	t0 := a[0] << 1
	t1 := a[1]<<1 | a[0]>>63
	t2 := a[2]<<1 | a[1]>>63
	t3 := a[3]<<1 | a[2]>>63

	s0, bo := bits.Sub64(t0, q0, 0)
	s1, bo := bits.Sub64(t1, q1, bo)
	s2, bo := bits.Sub64(t2, q2, bo)
	s3, bo := bits.Sub64(t3, q3, bo)
	mask := bo - 1
	z[0] = t0 ^ (mask & (t0 ^ s0))
	z[1] = t1 ^ (mask & (t1 ^ s1))
	z[2] = t2 ^ (mask & (t2 ^ s2))
	z[3] = t3 ^ (mask & (t3 ^ s3))
	return z
}

// Sub sets z = a − b and returns z.
func (z *Element) Sub(a, b *Element) *Element {
	var bo uint64
	z[0], bo = bits.Sub64(a[0], b[0], 0)
	z[1], bo = bits.Sub64(a[1], b[1], bo)
	z[2], bo = bits.Sub64(a[2], b[2], bo)
	z[3], bo = bits.Sub64(a[3], b[3], bo)
	// If the subtraction borrowed, add p back; mask keeps it branch-free.
	mask := -bo
	var c uint64
	z[0], c = bits.Add64(z[0], mask&q0, 0)
	z[1], c = bits.Add64(z[1], mask&q1, c)
	z[2], c = bits.Add64(z[2], mask&q2, c)
	z[3], _ = bits.Add64(z[3], mask&q3, c)
	return z
}

// Neg sets z = −a and returns z.
func (z *Element) Neg(a *Element) *Element {
	// p − a, masked to zero when a == 0 so the result stays canonical.
	v := a[0] | a[1] | a[2] | a[3]
	mask := -((v | -v) >> 63) // all-ones iff a != 0
	var b uint64
	z[0], b = bits.Sub64(q0, a[0], 0)
	z[1], b = bits.Sub64(q1, a[1], b)
	z[2], b = bits.Sub64(q2, a[2], b)
	z[3], _ = bits.Sub64(q3, a[3], b)
	z[0] &= mask
	z[1] &= mask
	z[2] &= mask
	z[3] &= mask
	return z
}

// ---------------------------------------------------------------------------
// Montgomery multiplication (constant time)
// ---------------------------------------------------------------------------

// madd0 returns the high word of a·b + c.
func madd0(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, carry := bits.Add64(lo, c, 0)
	return hi + carry
}

// madd1 returns a·b + c as (hi, lo).
func madd1(a, b, c uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	lo, carry := bits.Add64(lo, c, 0)
	return hi + carry, lo
}

// madd2 returns a·b + c + d as (hi, lo). The sum is at most
// (2^64−1)² + 2(2^64−1) = 2^128 − 1, so hi never wraps.
func madd2(a, b, c, d uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	c, carry := bits.Add64(c, d, 0)
	hi += carry
	lo, carry = bits.Add64(lo, c, 0)
	return hi + carry, lo
}

// Mul sets z = a·b (Montgomery product a·b·R⁻¹ mod p) and returns z.
// Aliasing of z with a or b is allowed. It runs the ADX assembly kernel
// when the CPU has one (mul_amd64.s tests useADX itself, so Mul inlines)
// and mulGeneric otherwise; both honour the same contract: operands below
// 2p, any aliasing, constant time, no allocation, and the same canonical
// result.
func (z *Element) Mul(a, b *Element) *Element {
	mul(z, a, b)
	return z
}

// mulGeneric is the portable Go Montgomery kernel behind Mul.
//
// This is the "no-carry" CIOS of Koç–Acar–Kaliski as refined for
// gnark-crypto (Botrel, Gutoski, Piellard): each of the four rounds adds
// one row a·b[i] (carry A) and cancels the low limb with m·p (carry C),
// shifting down one limb. Because the top limb of p is at most 2^63 − 2
// (checked at init), A + C fits in one word at the end of every round, so
// the working value needs no fifth limb and no round propagates a carry
// out of it. The result is < 2p; one masked subtraction canonicalizes it.
// The same holds for operands below 2p, such as AddUnreduced outputs,
// because 4p < 2^256 (checked at init; see the package doc).
func mulGeneric(z, a, b *Element) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	var t0, t1, t2, t3, A, C, m uint64

	// Round 0: t is zero, so the row needs no addend.
	bi := b[0]
	A, t0 = bits.Mul64(a0, bi)
	m = t0 * qInvNeg
	C = madd0(m, q0, t0)
	A, t1 = madd1(a1, bi, A)
	C, t0 = madd2(m, q1, t1, C)
	A, t2 = madd1(a2, bi, A)
	C, t1 = madd2(m, q2, t2, C)
	A, t3 = madd1(a3, bi, A)
	C, t2 = madd2(m, q3, t3, C)
	t3 = C + A

	// Round 1.
	bi = b[1]
	A, t0 = madd1(a0, bi, t0)
	m = t0 * qInvNeg
	C = madd0(m, q0, t0)
	A, t1 = madd2(a1, bi, t1, A)
	C, t0 = madd2(m, q1, t1, C)
	A, t2 = madd2(a2, bi, t2, A)
	C, t1 = madd2(m, q2, t2, C)
	A, t3 = madd2(a3, bi, t3, A)
	C, t2 = madd2(m, q3, t3, C)
	t3 = C + A

	// Round 2.
	bi = b[2]
	A, t0 = madd1(a0, bi, t0)
	m = t0 * qInvNeg
	C = madd0(m, q0, t0)
	A, t1 = madd2(a1, bi, t1, A)
	C, t0 = madd2(m, q1, t1, C)
	A, t2 = madd2(a2, bi, t2, A)
	C, t1 = madd2(m, q2, t2, C)
	A, t3 = madd2(a3, bi, t3, A)
	C, t2 = madd2(m, q3, t3, C)
	t3 = C + A

	// Round 3.
	bi = b[3]
	A, t0 = madd1(a0, bi, t0)
	m = t0 * qInvNeg
	C = madd0(m, q0, t0)
	A, t1 = madd2(a1, bi, t1, A)
	C, t0 = madd2(m, q1, t1, C)
	A, t2 = madd2(a2, bi, t2, A)
	C, t1 = madd2(m, q2, t2, C)
	A, t3 = madd2(a3, bi, t3, A)
	C, t2 = madd2(m, q3, t3, C)
	t3 = C + A

	// t < 2p: subtract p unless that borrows. A mask, not a branch, so
	// the instruction sequence does not depend on the operands.
	s0, bo := bits.Sub64(t0, q0, 0)
	s1, bo := bits.Sub64(t1, q1, bo)
	s2, bo := bits.Sub64(t2, q2, bo)
	s3, bo := bits.Sub64(t3, q3, bo)
	mask := bo - 1
	z[0] = t0 ^ (mask & (t0 ^ s0))
	z[1] = t1 ^ (mask & (t1 ^ s1))
	z[2] = t2 ^ (mask & (t2 ^ s2))
	z[3] = t3 ^ (mask & (t3 ^ s3))
}

// Square sets z = a² and returns z. It is Mul(a, a), so it runs whichever
// kernel Mul runs: a dedicated squaring would save under ~15% for 4 limbs,
// and one multiplication path per architecture keeps the differential
// test surface small.
func (z *Element) Square(a *Element) *Element {
	return z.Mul(a, a)
}

// toMont converts raw residue limbs into Montgomery form in place.
func (z *Element) toMont() *Element {
	return z.Mul(z, &rSquare)
}

// fromMont converts z out of Montgomery form: a Montgomery product with the
// raw integer 1 divides by R.
func (z *Element) fromMont() *Element {
	return z.Mul(z, &Element{1})
}

// ---------------------------------------------------------------------------
// Exponentiation-based operations (constant time, public fixed exponents)
// ---------------------------------------------------------------------------

// expFixed sets z = a^e for the public exponent e (raw limbs), scanning all
// 64 nibbles with a 16-entry table. The operation sequence depends only on
// the exponent, which is a compile-time constant for every caller, so the
// routine is constant time in a.
func (z *Element) expFixed(a *Element, e *[4]uint64) *Element {
	var tbl [16]Element
	tbl[0] = one
	tbl[1] = *a
	for i := 2; i < 16; i++ {
		tbl[i].Mul(&tbl[i-1], a)
	}
	var res Element
	res = one
	for n := 63; n >= 0; n-- {
		if n != 63 {
			res.Square(&res)
			res.Square(&res)
			res.Square(&res)
			res.Square(&res)
		}
		nib := (e[n/16] >> ((n % 16) * 4)) & 0xf
		// Multiply unconditionally (table[0] is 1) to keep the sequence
		// independent of the exponent bits — immaterial for our public
		// exponents, free to keep.
		res.Mul(&res, &tbl[nib])
	}
	return z.Set(&res)
}

// Inverse sets z = a⁻¹ (Fermat: a^(p−2)) and returns z. Inverse of zero is
// zero, matching the convention the callers check explicitly. Constant time.
func (z *Element) Inverse(a *Element) *Element {
	return z.expFixed(a, &pMinus2)
}

// Sqrt sets z to a square root of a and reports whether a is a quadratic
// residue. Since p ≡ 3 (mod 4) the candidate root is a^((p+1)/4); the final
// verification squaring makes the routine total. z is untouched when a is a
// non-residue.
func (z *Element) Sqrt(a *Element) bool {
	var cand, check Element
	cand.expFixed(a, &pPlus1Over4)
	check.Square(&cand)
	if !check.Equal(a) {
		return false
	}
	z.Set(&cand)
	return true
}

// ---------------------------------------------------------------------------
// Conversion shims (NOT constant time)
// ---------------------------------------------------------------------------

// SetBigInt assigns v mod p to z and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element {
	*z = limbsFromBig(new(big.Int).Mod(v, modulus))
	return z.toMont()
}

// limbsFromBig returns the little-endian 64-bit limbs of 0 ≤ x < 2^256.
// It goes through bytes, not x.Bits(): a big.Word is 32 bits on 386, arm
// and mips.
func limbsFromBig(x *big.Int) Element {
	var buf [32]byte
	x.FillBytes(buf[:])
	var e Element
	for i := range e {
		e[i] = binary.BigEndian.Uint64(buf[32-8*(i+1):])
	}
	return e
}

// BigInt returns the canonical value of z as a fresh big.Int.
func (z *Element) BigInt() *big.Int {
	t := *z
	t.fromMont()
	var buf [32]byte
	putBE(&buf, &t)
	return new(big.Int).SetBytes(buf[:])
}

// Bytes returns the canonical 32-byte big-endian encoding of z.
func (z *Element) Bytes() [32]byte {
	t := *z
	t.fromMont()
	var buf [32]byte
	putBE(&buf, &t)
	return buf
}

// SetBytes decodes a canonical 32-byte big-endian encoding, reporting
// whether the value was in range [0, p). z is zeroed on failure.
func (z *Element) SetBytes(data []byte) bool {
	if len(data) != 32 {
		z.SetZero()
		return false
	}
	var raw Element
	for i := 0; i < 4; i++ {
		off := 32 - 8*(i+1)
		raw[i] = uint64(data[off])<<56 | uint64(data[off+1])<<48 |
			uint64(data[off+2])<<40 | uint64(data[off+3])<<32 |
			uint64(data[off+4])<<24 | uint64(data[off+5])<<16 |
			uint64(data[off+6])<<8 | uint64(data[off+7])
	}
	if !smallerThanModulus(&raw) {
		z.SetZero()
		return false
	}
	*z = raw
	z.toMont()
	return true
}

// smallerThanModulus reports whether the raw limbs encode a value < p.
func smallerThanModulus(a *Element) bool {
	var b uint64
	_, b = bits.Sub64(a[0], q0, 0)
	_, b = bits.Sub64(a[1], q1, b)
	_, b = bits.Sub64(a[2], q2, b)
	_, b = bits.Sub64(a[3], q3, b)
	return b == 1
}

// Cmp compares the canonical values of z and a, returning -1, 0 or 1. Used
// by the lexicographic sign convention of the compressed encodings; not
// constant time.
func (z *Element) Cmp(a *Element) int {
	zt, at := *z, *a
	zt.fromMont()
	at.fromMont()
	for i := 3; i >= 0; i-- {
		if zt[i] != at[i] {
			if zt[i] > at[i] {
				return 1
			}
			return -1
		}
	}
	return 0
}

// LexLarger reports whether z > p − z, the "lexicographically larger" root
// convention of the compressed point encodings.
func (z *Element) LexLarger() bool {
	var neg Element
	neg.Neg(z)
	return z.Cmp(&neg) > 0
}

func putBE(buf *[32]byte, t *Element) {
	for i := 0; i < 4; i++ {
		off := 32 - 8*(i+1)
		v := t[i]
		buf[off] = byte(v >> 56)
		buf[off+1] = byte(v >> 48)
		buf[off+2] = byte(v >> 40)
		buf[off+3] = byte(v >> 32)
		buf[off+4] = byte(v >> 24)
		buf[off+5] = byte(v >> 16)
		buf[off+6] = byte(v >> 8)
		buf[off+7] = byte(v)
	}
}

// String formats the canonical value in decimal, for debugging.
func (z *Element) String() string {
	return fmt.Sprintf("%d", z.BigInt())
}
