package deadex

import "testing"

func TestTested(t *testing.T) { Tested() }
