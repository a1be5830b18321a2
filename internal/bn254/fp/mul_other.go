//go:build !amd64

package fp

// useADX is false off amd64: Mul always runs mulGeneric.
const useADX = false

// mulADX is never called off amd64; it exists so Mul compiles everywhere.
func mulADX(z, a, b *Element) { panic("fp: no ADX kernel on this GOARCH") }
