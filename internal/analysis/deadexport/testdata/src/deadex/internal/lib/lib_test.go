package lib

import "testing"

func TestOwnTests(t *testing.T) { OwnTests() }
