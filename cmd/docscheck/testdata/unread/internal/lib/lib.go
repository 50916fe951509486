// Package lib holds one struct field per case docscheck's unread-field
// check must get right.
package lib

// Counts is read field by field.
type Counts struct {
	Read      int // read by a command
	WriteOnly int // assigned, incremented and keyed, never read: reported
	TestRead  int // read from lib_test.go alone: reported
	BenchRead int // read only from the nested benchmark module
	Tagged    int `json:"tagged"` // read by reflection: exempt
	Embedded      // embedded fields promote; they are not checked
}

// Embedded is promoted into Counts.
type Embedded struct{ Depth int }

// Bump writes WriteOnly every way there is.
func Bump(c *Counts) Counts {
	c.WriteOnly = 1
	c.WriteOnly++
	c.WriteOnly += 2
	return Counts{WriteOnly: 3, Embedded: Embedded{Depth: c.Depth}}
}

// Key is only ever a map key: its fields take part in equality.
type Key struct{ A, B int }

// Pair is only ever compared whole.
type Pair struct{ X, Y int }

// Same compares two pairs whole.
func Same(a, b Pair) bool { return a == b }

// Settings returns a table whose element type is spelled twice: a read
// through the result type reads the literal's identical fields too.
func Settings() []struct{ Name string } {
	return []struct{ Name string }{{"a"}, {"b"}}
}
