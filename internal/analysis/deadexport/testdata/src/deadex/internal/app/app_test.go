package app

import (
	"testing"

	"deadex/internal/lib"
)

func TestOtherTests(t *testing.T) { lib.OtherTests() }
