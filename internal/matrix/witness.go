package matrix

// Key packs a matrix coordinate into a map key; MulRows files witnesses
// under it.
func Key(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

// UnKey unpacks a coordinate produced by Key.
func UnKey(k uint64) (i, j int) { return int(k >> 32), int(uint32(k)) }
