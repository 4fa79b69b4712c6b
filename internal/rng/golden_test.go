package rng

import "testing"

// TestGoldenStream pins the generator's output bit for bit, so a change
// to the LCG step or the output function cannot pass unnoticed: every
// synthetic corpus and experiment result is a function of this stream.
func TestGoldenStream(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want [8]uint64
	}{
		{1, [8]uint64{
			0x07a9620a264dc52b, 0x35126a955d53f02f, 0xa7037241c0a1b5e3, 0xa100b093970a7960,
			0xb1b35303b99932f5, 0x992088c7af71cb90, 0xad561f3a628ba661, 0xb1fbd51a5127ce86,
		}},
		{0xdeadbeef, [8]uint64{
			0xd9f8c0ac89854f81, 0x0c6eb58d755151ad, 0xe372023012d04272, 0xe9f1f9fc724c8cd3,
			0xb2d65648e4365de8, 0xa9722a4639b64bc0, 0x0314313e309e202f, 0x0686b5bad9fcac2a,
		}},
	} {
		r := New(tc.seed)
		for i, want := range tc.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("New(%#x) Uint64 #%d = %#016x, want %#016x", tc.seed, i, got, want)
			}
		}
	}
	r := New(1)
	for i, want := range []float64{0.7020481719871035, -0.6372516392709942} {
		if got := r.NormFloat64(); got != want {
			t.Fatalf("New(1) NormFloat64 #%d = %v, want %v", i, got, want)
		}
	}
}
