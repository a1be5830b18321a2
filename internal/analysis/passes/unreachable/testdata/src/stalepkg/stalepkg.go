// phrlint:root every function here is called anyway
package stalepkg // want `stale phrlint:root: every function of the package is reached without it`

func Used() int { return 1 }
