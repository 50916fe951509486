package main

import (
	"reflect"
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
	got := checkUnreferenced(loadFixture(t, "testdata/unref"))
	want := "internal/lib/lib.go:6: lib.TestOnly has no non-test reference"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("problems = %q, want [%q]", got, want)
	}
}

// TestUnreadFieldsFixture runs check 6 on a two-module fixture: only the
// field that is only ever written and the field only a _test.go file reads
// are reported. Fields read from a command or from the nested benchmark
// module, a tagged field, the fields of a map key and of a struct compared
// whole, an embedded field, and the fields of an anonymous struct read
// through an identical type all pass.
func TestUnreadFieldsFixture(t *testing.T) {
	got := checkUnreadFields(loadFixture(t, "testdata/unread"))
	want := []string{
		"internal/lib/lib.go:8: lib.Counts.WriteOnly is never read",
		"internal/lib/lib.go:9: lib.Counts.TestRead is never read",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems = %q, want %q", got, want)
	}
}

// loadFixture type-checks a fixture tree for checks 5 and 6.
func loadFixture(t *testing.T, root string) *loader {
	t.Helper()
	l, problems := loadTree(root)
	if len(problems) > 0 {
		t.Fatalf("fixture %s does not load: %q", root, problems)
	}
	return l
}

// TestRepositoryPasses runs all six checks on the repository itself.
func TestRepositoryPasses(t *testing.T) {
	if problems := check("../.."); len(problems) > 0 {
		t.Fatalf("docscheck reports %d problem(s):\n%s", len(problems), strings.Join(problems, "\n"))
	}
}
