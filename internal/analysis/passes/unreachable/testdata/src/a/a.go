package main

import (
	"fmt"

	"rooted"
	"stalepkg"
)

// shape's Area is called through the interface, so every type converted
// to shape keeps its Area.
type shape interface{ Area() int }

type square struct{ n int }

func (s square) Area() int { return s.n * s.n }

// Perimeter is in square's method set, but nothing calls Perimeter
// through an interface.
func (s square) Perimeter() int { return 4 * s.n } // want `\(square\)\.Perimeter is unreachable`

type counter struct{ n int }

// Inc is reached as a method value.
func (c *counter) Inc() { c.n++ }

func (c *counter) Dec() { c.n-- } // want `\(\*counter\)\.Dec is unreachable`

// one is reached through the package variable that stores it.
var hooks = map[string]func() int{"one": one}

func one() int { return 1 }

// Map is generic; calling it reaches it and the function passed in.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func double(x int) int { return 2 * x }

// meters' Value is called through sum's constraint.
type valuer interface{ Value() int }

type meters int

func (m meters) Value() int { return int(m) }

func sum[T valuer](xs ...T) int {
	t := 0
	for _, x := range xs {
		t += x.Value()
	}
	return t
}

// wrapped's Unwrap is found by errors.Is through a type assertion, so
// converting wrapped to error reaches it.
type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }

func (w wrapped) Unwrap() error { return w.err }

func main() {
	var s shape = square{2}
	var err error = wrapped{}
	c := &counter{}
	inc := c.Inc
	inc()
	fmt.Println(s.Area(), Map([]int{1}, double), hooks["one"](), sum(meters(3)), kernel(), used())
	fmt.Println(rooted.API(), stalepkg.Used(), err)
}

// onlyTests is called by a_test.go alone, which no binary links.
func onlyTests() int { return 3 } // want `onlyTests is unreachable`

// phrlint:root the README's experiment table runs it
func Harness() int { return helper() }

// helper is reached through the rooted Harness.
func helper() int { return 4 }

// phrlint:root
func bare() {} // want `phrlint:root directive must carry a reason` `bare is unreachable`

// phrlint:root main calls it anyway
func used() int { return 5 } // want `stale phrlint:root: used is reached without it`
