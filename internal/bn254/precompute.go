package bn254

import "sync"

// Precomputation for the fixed-base paths.
//
// G2.ScalarBaseMult multiplies the fixed generator of G2, and GTExpBase
// powers the fixed ê(G1gen, G2gen). Both run the endomorphism split of
// split.go, and for a fixed base the odd-power tables of the four split
// bases B, π(B), π²(B), π³(B) can be kept instead of rebuilt: a wider
// window then costs memory once, not a longer table build per call.
// TestFixedTablesSize pins the total size of these tables.
//
// The tables are built lazily behind sync.Once guards and shared by every
// goroutine; nothing here mutates after construction.

const (
	// gtBaseWindow is the recoding width of GTExpBase: 16 odd powers of
	// each of the four bases, 24 KiB in all.
	gtBaseWindow = 6
	// g2BaseWindow is the recoding width of G2.ScalarBaseMult: 32 odd
	// multiples of each of the four bases, 17 KiB in all.
	g2BaseWindow = 7
)

type (
	gtBaseTable [4][1 << (gtBaseWindow - 2)]fp12
	g2BaseTable [4][1 << (g2BaseWindow - 2)]G2
)

var (
	gtBaseTableOnce sync.Once
	gtBaseTabs      [][]fp12

	g2GenTableOnce sync.Once
	g2GenTabs      [][]G2
)

// gtBaseTables returns the odd powers of GTBase() and of its three
// Frobenius images.
func gtBaseTables() [][]fp12 {
	gtBaseTableOnce.Do(func() {
		t := new(gtBaseTable)
		tabs := [][]fp12{t[0][:], t[1][:], t[2][:], t[3][:]}
		oddPowers(tabs[0], &GTBase().v)
		frobeniusTables(tabs)
		gtBaseTabs = tabs
	})
	return gtBaseTabs
}

// g2GeneratorTables returns the affine odd multiples of the G2 generator
// and of its three ψ images.
func g2GeneratorTables() [][]G2 {
	g2GenTableOnce.Do(func() {
		t := new(g2BaseTable)
		var twice G2
		twice.Double(&g2Gen)
		t[0][0].Set(&g2Gen)
		for i := 1; i < len(t[0]); i++ {
			t[0][i].Add(&t[0][i-1], &twice)
		}
		for b := 1; b < len(t); b++ {
			for i := range t[b] {
				t[b][i].frobeniusTwist(&t[b-1][i])
			}
		}
		g2GenTabs = [][]G2{t[0][:], t[1][:], t[2][:], t[3][:]}
	})
	return g2GenTabs
}
