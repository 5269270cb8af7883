// Package lib is loaded without tests, so the check stays silent.
package lib

func Unused() {}
