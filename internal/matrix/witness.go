package matrix

// Key packs a matrix coordinate into a map key; MulAddRows files
// witnesses under it.
func Key(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }
