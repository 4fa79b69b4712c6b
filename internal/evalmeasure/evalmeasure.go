// Package evalmeasure implements the evaluation measures of the paper's §5.1:
// recall (correctly detected shot changes over actual shot changes) and
// precision (correctly detected over all detected), computed by matching
// detected boundaries to ground-truth boundaries within a small
// tolerance window.
package evalmeasure

import "fmt"

// DefaultTolerance is the matching window in frames: a detected boundary
// within ±1 frame of a true boundary counts as correct (dissolve
// midpoints are inherently fuzzy at 3 fps).
const DefaultTolerance = 1

// Result holds the outcome of one evaluation.
type Result struct {
	// Actual is the number of true boundaries.
	Actual int
	// Detected is the number of reported boundaries.
	Detected int
	// Correct is the number of reported boundaries matched to a true
	// boundary (each true boundary matches at most one report).
	Correct int
}

// Recall returns Correct/Actual (1 if there are no true boundaries).
func (r Result) Recall() float64 {
	if r.Actual == 0 {
		return 1
	}
	return float64(r.Correct) / float64(r.Actual)
}

// Precision returns Correct/Detected (1 if nothing was detected).
func (r Result) Precision() float64 {
	if r.Detected == 0 {
		return 1
	}
	return float64(r.Correct) / float64(r.Detected)
}

// F1 returns the harmonic mean of recall and precision (0 when both are
// 0).
func (r Result) F1() float64 {
	p, c := r.Precision(), r.Recall()
	if p+c == 0 {
		return 0
	}
	return 2 * p * c / (p + c)
}

// Add accumulates another result (for corpus-level totals).
func (r *Result) Add(o Result) {
	r.Actual += o.Actual
	r.Detected += o.Detected
	r.Correct += o.Correct
}

// String formats the result like the paper's Table 5 rows.
func (r Result) String() string {
	return fmt.Sprintf("actual=%d detected=%d correct=%d recall=%.2f precision=%.2f",
		r.Actual, r.Detected, r.Correct, r.Recall(), r.Precision())
}

// Evaluate matches detected boundaries against truth with the given
// frame tolerance. Both lists must be ascending. Matching is greedy in
// temporal order: each truth boundary consumes the nearest unmatched
// detection within the window, which never double-counts either side.
func Evaluate(truth, detected []int, tolerance int) Result {
	if tolerance < 0 {
		tolerance = 0
	}
	res := Result{Actual: len(truth), Detected: len(detected)}
	used := make([]bool, len(detected))
	j := 0
	for _, t := range truth {
		// Advance past detections too far left to ever match again.
		for j < len(detected) && detected[j] < t-tolerance {
			j++
		}
		// Find the nearest unmatched detection within the window.
		best, bestDist := -1, tolerance+1
		for k := j; k < len(detected) && detected[k] <= t+tolerance; k++ {
			if used[k] {
				continue
			}
			d := detected[k] - t
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				best, bestDist = k, d
			}
		}
		if best >= 0 {
			used[best] = true
			res.Correct++
		}
	}
	return res
}
