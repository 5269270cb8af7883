package lib // want `stale deadexport allowlist entry deadex/internal/lib.Gone: no such name`

import "fmt"

func Unused() {} // want `exported lib.Unused has no caller`

func OwnTests() {} // want `exported lib.OwnTests has no caller`

func OtherTests() {} // another package's tests call it

func Called() {}

const Limit = 3 // want `exported lib.Limit has no caller`

// Flag is a flag.Value that app registers.
type Flag []string

func (f *Flag) String() string { return fmt.Sprint(*f) }

func (f *Flag) Set(v string) error { *f = append(*f, v); return nil }

func (f *Flag) Reset() { *f = nil } // want `exported lib.Flag.Reset has no caller`

// Level is printed: fmt finds its String.
type Level int

func (l Level) String() string { return "level" }

type hidden struct{}

func (hidden) Peek() {} // want `exported lib.hidden.Peek has no caller`

func Kept() {} // the allowlist keeps it

func Stale() {} // want `stale deadexport allowlist entry deadex/internal/lib.Stale: it has a caller now`
