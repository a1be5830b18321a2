package bn254

import (
	"math/big"
	"sync"
)

// Precomputation for the fixed-base paths.
//
// Scalar multiplications overwhelmingly use the fixed generators of G1 and
// G2, and GT exponentiations overwhelmingly use ê(G1gen, G2gen). Windowed
// fixed-base tables trade a one-time table build for dropping every
// doubling (respectively squaring) from those operations.
//
// All tables are built lazily behind sync.Once guards and shared by every
// goroutine; nothing here mutates after construction.

// ---------------------------------------------------------------------------
// Fixed-base windowed scalar multiplication
// ---------------------------------------------------------------------------

const (
	// fixedBaseWindow is the window width in bits.
	fixedBaseWindow = 4
	// fixedBaseWindows covers a full 256-bit reduced scalar.
	fixedBaseWindows = 256 / fixedBaseWindow
	// fixedBaseEntries is the number of nonzero window values (1..15).
	fixedBaseEntries = 1<<fixedBaseWindow - 1
)

// windowValue extracts window w (fixedBaseWindow bits) of the reduced
// scalar k.
func windowValue(k *big.Int, w int) uint {
	base := w * fixedBaseWindow
	v := uint(0)
	for b := 0; b < fixedBaseWindow; b++ {
		v |= k.Bit(base+b) << b
	}
	return v
}

// g1FixedTable holds tab[w][v-1] = v·2^(4w)·B for a fixed base B.
type g1FixedTable struct {
	tab [fixedBaseWindows][fixedBaseEntries]G1
}

func buildG1FixedTable(base *G1) *g1FixedTable {
	t := new(g1FixedTable)
	var cur G1
	cur.Set(base)
	for w := 0; w < fixedBaseWindows; w++ {
		t.tab[w][0].Set(&cur)
		for v := 1; v < fixedBaseEntries; v++ {
			t.tab[w][v].Add(&t.tab[w][v-1], &cur)
		}
		var next G1
		next.Add(&t.tab[w][fixedBaseEntries-1], &cur) // 16·cur
		cur.Set(&next)
	}
	return t
}

// mul computes p = k·B by summing one table entry per nonzero window: at
// most 64 mixed Jacobian additions and one final inversion, against the
// ~254 doublings plus ~127 additions of the generic ladder.
func (t *g1FixedTable) mul(p *G1, k *big.Int) *G1 {
	kk := new(big.Int).Mod(k, Order)
	var acc g1Jac
	acc.setInfinity()
	for w := 0; w < fixedBaseWindows; w++ {
		if v := windowValue(kk, w); v != 0 {
			acc.addMixed(&t.tab[w][v-1])
		}
	}
	acc.toAffine(p)
	return p
}

// g2FixedTable is the G2 analogue of g1FixedTable. Accumulation is mixed
// Jacobian like G1: with limb-based field arithmetic an Fp2 inversion costs
// hundreds of multiplications, so one inversion at the end beats one per
// window (the reverse of the old math/big trade-off; see G2.ScalarMult).
type g2FixedTable struct {
	tab [fixedBaseWindows][fixedBaseEntries]G2
}

func buildG2FixedTable(base *G2) *g2FixedTable {
	t := new(g2FixedTable)
	var cur G2
	cur.Set(base)
	for w := 0; w < fixedBaseWindows; w++ {
		t.tab[w][0].Set(&cur)
		for v := 1; v < fixedBaseEntries; v++ {
			t.tab[w][v].Add(&t.tab[w][v-1], &cur)
		}
		var next G2
		next.Add(&t.tab[w][fixedBaseEntries-1], &cur)
		cur.Set(&next)
	}
	return t
}

func (t *g2FixedTable) mul(p *G2, k *big.Int) *G2 {
	kk := new(big.Int).Mod(k, Order)
	var acc g2Jac
	acc.setInfinity()
	for w := 0; w < fixedBaseWindows; w++ {
		if v := windowValue(kk, w); v != 0 {
			acc.addMixed(&t.tab[w][v-1])
		}
	}
	acc.toAffine(p)
	return p
}

// gtFixedTable holds tab[w][v-1] = B^(v·2^(4w)) for the fixed GT base.
type gtFixedTable struct {
	tab [fixedBaseWindows][fixedBaseEntries]fp12
}

func buildGTFixedTable(base *fp12) *gtFixedTable {
	t := new(gtFixedTable)
	var cur fp12
	cur.Set(base)
	for w := 0; w < fixedBaseWindows; w++ {
		t.tab[w][0].Set(&cur)
		for v := 1; v < fixedBaseEntries; v++ {
			t.tab[w][v].Mul(&t.tab[w][v-1], &cur)
		}
		var next fp12
		next.Mul(&t.tab[w][fixedBaseEntries-1], &cur)
		cur.Set(&next)
	}
	return t
}

// exp computes out = B^k with one multiplication per nonzero window and no
// squarings at all.
func (t *gtFixedTable) exp(out *fp12, k *big.Int) *fp12 {
	kk := new(big.Int).Mod(k, Order)
	out.SetOne()
	for w := 0; w < fixedBaseWindows; w++ {
		if v := windowValue(kk, w); v != 0 {
			out.Mul(out, &t.tab[w][v-1])
		}
	}
	return out
}

var (
	g1GenTableOnce sync.Once
	g1GenTable     *g1FixedTable

	g2GenTableOnce sync.Once
	g2GenTable     *g2FixedTable

	gtBaseTableOnce sync.Once
	gtBaseTable     *gtFixedTable
)

func g1GeneratorTable() *g1FixedTable {
	g1GenTableOnce.Do(func() {
		g1GenTable = buildG1FixedTable(&g1Gen)
	})
	return g1GenTable
}

func g2GeneratorTable() *g2FixedTable {
	g2GenTableOnce.Do(func() {
		g2GenTable = buildG2FixedTable(&g2Gen)
	})
	return g2GenTable
}

func gtBaseFixedTable() *gtFixedTable {
	gtBaseTableOnce.Do(func() {
		gtBaseTable = buildGTFixedTable(&GTBase().v)
	})
	return gtBaseTable
}
