package main

import (
	"strings"
	"testing"
)

// TestUnreferencedFixture runs check 5 on a two-module fixture: of the
// fixture's exported declarations, only the func that a _test.go file alone
// calls is reported. A func called from a command, a generic method called
// through an instantiation, a method called through an interface it
// implements, and a func called only from the nested benchmark module all
// count as referenced.
func TestUnreferencedFixture(t *testing.T) {
	got := checkUnreferenced("testdata/unref")
	want := "internal/lib/lib.go:6: lib.TestOnly has no non-test reference"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("problems = %q, want [%q]", got, want)
	}
}

// TestRepositoryPasses runs all five checks on the repository itself.
func TestRepositoryPasses(t *testing.T) {
	if problems := check("../.."); len(problems) > 0 {
		t.Fatalf("docscheck reports %d problem(s):\n%s", len(problems), strings.Join(problems, "\n"))
	}
}
