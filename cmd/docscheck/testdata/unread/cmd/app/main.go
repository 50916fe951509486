package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var c lib.Counts
	lib.Bump(&c)
	seen := map[lib.Key]bool{{A: 1, B: 2}: true}
	fmt.Println(c.Read, len(seen), lib.Same(lib.Pair{X: 1}, lib.Pair{Y: 1}))
	for _, s := range lib.Settings() {
		fmt.Println(s.Name)
	}
}
