// Package rooted is a library whose whole API stays, called or not.
//
// phrlint:root the experiment's public API
package rooted

func API() int { return internal() }

func internal() int { return 1 }

// Spare is called by no binary; the package root keeps it.
func Spare() int { return 2 }
