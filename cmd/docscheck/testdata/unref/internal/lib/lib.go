// Package lib holds one declaration per case docscheck's unreferenced-export
// check must get right.
package lib

// TestOnly is called from lib_test.go alone: the check reports it.
func TestOnly() {}

// UsedByMain is called from a command.
func UsedByMain() {}

// UsedByBenchmark is called only from the nested benchmark module.
func UsedByBenchmark() {}

// Box is generic; its method is only ever called on an instantiation.
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Shape is called through by the command.
type Shape interface{ Area() int }

// Square implements Shape; nothing calls Area on a Square directly.
type Square struct{ Side int }

// Area implements Shape.
func (s Square) Area() int { return s.Side * s.Side }
