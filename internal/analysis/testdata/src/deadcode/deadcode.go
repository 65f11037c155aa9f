// Package main is a golden-test fixture for the deadcode check. Its
// roots are main, init and the package-level initializers; only the top
// of each unreachable region is reported.
package main

import (
	"fmt"
	"sort"
)

func main() {
	called()
	f := valued // a function value
	f()
	var s shape = square{}
	fmt.Println(s.area())
	g := holder{}.method // a method value
	g()
	sort.Sort(byLen(nil))
	fmt.Println(label(1)) // String is called by fmt, out of the loader's sight
}

func init() { fromInit() }

var table = map[string]func(){"x": fromInitializer}

func called()          { calledHelper() }
func calledHelper()    {}
func valued()          {}
func fromInit()        {}
func fromInitializer() {}

type shape interface{ area() float64 }

type square struct{}

func (square) area() float64 { return 1 }

// circle is never built, but CHA counts its area as reachable through
// the shape.area call in main.
type circle struct{}

func (circle) area() float64 { return 3 }

type holder struct{}

func (holder) method() {}

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

type label int

func (label) String() string { return "label" }

// Exported is reachable only when the package is public API.
func Exported() {} // want `deadcode\.Exported is unreachable`

// orphan is the top of a dead region; orphanHelper hangs off it and is
// not reported separately.
func orphan() { orphanHelper() } // want `deadcode\.orphan is unreachable.*; it reaches 1 more unreachable function\(s\)`

func orphanHelper() {}

// ping and pong form a dead cycle that nothing references: it is
// reported once, at its first member.
func ping(n int) { // want `deadcode\.ping is unreachable.*\(nor the 1 other function\(s\) in its reference cycle\)`
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	if n > 0 {
		ping(n - 1)
	}
}

type idle struct{}

func (idle) spin() {} // want `deadcode\.\(idle\)\.spin is unreachable`

// kept is a test reference; the directive also covers keptHelper.
//
//lint:ignore deadcode a test calls it
func kept() { keptHelper() }

func keptHelper() {}
