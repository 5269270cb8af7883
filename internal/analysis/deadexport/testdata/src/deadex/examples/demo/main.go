package main

import (
	"deadex"
	"deadex/internal/app"
)

func main() {
	deadex.Shown()
	app.Run()
}
