//go:build !amd64

package fp

// mul is mulGeneric off amd64, where there is no assembly kernel.
func mul(z, a, b *Element) { mulGeneric(z, a, b) }
