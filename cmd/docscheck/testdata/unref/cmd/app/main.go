package main

import "fixture/internal/lib"

func main() {
	lib.UsedByMain()
	var b lib.Box[int]
	_ = b.Get()
	var s lib.Shape = lib.Square{Side: 2}
	_ = s.Area()
}
