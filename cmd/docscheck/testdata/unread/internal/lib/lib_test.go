package lib

import "testing"

func TestTestRead(t *testing.T) {
	if (Counts{TestRead: 1}).TestRead != 1 {
		t.Fatal("unreachable")
	}
}
