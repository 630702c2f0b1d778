package splitmix

import "testing"

// TestMixKnownValues pins the finalizer to the reference SplitMix64
// outputs for seed 0 (state advanced by Gamma before each mix).
func TestMixKnownValues(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		state += Gamma
		if got := Mix(state); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}
