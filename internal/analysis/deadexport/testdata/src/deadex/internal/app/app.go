package app

import (
	"flag"
	"fmt"

	"deadex/internal/lib"
)

func Run() {
	var f lib.Flag
	flag.Var(&f, "f", "a repeatable value")
	fmt.Println(lib.Level(1))
	lib.Called()
	lib.Stale()
}
