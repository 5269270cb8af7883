// Package gen is test support: its names are not judged.
package gen

func Helper() {}
