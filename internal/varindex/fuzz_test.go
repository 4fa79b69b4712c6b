package varindex

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzFloat decodes the next 8 bytes of data as a float64 and
// sanitizes it into [-limit, limit], NaN-free. Returns the remaining
// bytes.
func fuzzFloat(data []byte, limit float64) (float64, []byte) {
	if len(data) < 8 {
		return 0, nil
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
	data = data[8:]
	if math.IsNaN(v) {
		return 0, data
	}
	if v > limit {
		return limit, data
	}
	if v < -limit {
		return -limit, data
	}
	return v, data
}

// FuzzSearchEquivalence drives the Search ≡ SearchLinear and
// SearchAppend ≡ SearchLinear properties with fuzzer-chosen entries,
// query and tolerances. Variances are clamped to 1e12 and tolerances
// floored at 1e-6; NaN and negative variances are sanitized out — the
// analysis pipeline never produces them, and they would make the sort
// order itself undefined.
func FuzzSearchEquivalence(f *testing.F) {
	le := func(vals ...float64) []byte {
		out := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	// query(4) + options(2) + one entry(5)
	f.Add(le(1, 0.5, 0.1, -0.1, 1, 1, 2, 0.25, 0.3, 0.1, -0.2))
	// zero-variance entries, boundary tolerances
	f.Add(le(0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 4, 1, 0.5, 0.5, 0.5))
	// extreme magnitudes
	f.Add(le(1e12, 3, 0, 0, 2, 2, 9e11, 1e-9, 1, 1, 1))
	// Adversarial tolerance bit patterns — NaN, +Inf, negative and
	// denormal α/β. The harness sanitizes them into the valid domain
	// (the raw values are rejected with ErrBadTolerance, pinned by the
	// table tests); the seed keeps the fuzzer exploring around those
	// edges of float space.
	f.Add(le(25, 4, 0, 0, math.NaN(), math.Inf(1), 25, 4, 0.1, 0.1, 0.1))
	f.Add(le(1e11, 5, 0, 0, -3, math.SmallestNonzeroFloat64, 1e11, 1, 0, 0, 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var q Query
		q.VarBA, data = fuzzFloat(data, 1e12)
		q.VarOA, data = fuzzFloat(data, 1e12)
		q.VarBA, q.VarOA = math.Abs(q.VarBA), math.Abs(q.VarOA)
		q.MeanBA[0], data = fuzzFloat(data, 10)
		q.MeanBA[1], data = fuzzFloat(data, 10)

		var opt Options
		opt.Alpha, data = fuzzFloat(data, 100)
		opt.Beta, data = fuzzFloat(data, 100)
		opt.Alpha = math.Max(math.Abs(opt.Alpha), 1e-6)
		opt.Beta = math.Max(math.Abs(opt.Beta), 1e-6)

		ix := New()
		for shot := 0; len(data) >= 5*8 && shot < 64; shot++ {
			var e Entry
			e.VarBA, data = fuzzFloat(data, 1e12)
			e.VarOA, data = fuzzFloat(data, 1e12)
			e.VarBA, e.VarOA = math.Abs(e.VarBA), math.Abs(e.VarOA)
			e.MeanBA[0], data = fuzzFloat(data, 10)
			e.MeanBA[1], data = fuzzFloat(data, 10)
			e.MeanBA[2], data = fuzzFloat(data, 10)
			e.Clip, e.Shot = "fz", shot
			ix.Add(e)
		}
		ix.Build()
		checkSearchEquivalence(t, ix, q, opt)
	})
}
