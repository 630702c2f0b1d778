// Package splitmix holds the splitmix64 finalizer (Steele, Lea & Flood's
// SplitMix64 output function) shared by every seed-derivation and
// stream generator in the module: fault-site streams, dropout and shard
// reseeding, per-row serving noise seeds and trace IDs. One copy keeps
// them bit-compatible by construction.
package splitmix

// Gamma is the splitmix64 state increment (the odd 64-bit golden ratio).
const Gamma = 0x9e3779b97f4a7c15

// Mix is the splitmix64 finalizer: a bijective avalanche of z.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
