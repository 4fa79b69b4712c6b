package evalmeasure

import (
	"testing"
	"testing/quick"

	"videodb/internal/rng"
)

func TestPerfectDetection(t *testing.T) {
	r := Evaluate([]int{10, 20, 30}, []int{10, 20, 30}, 0)
	if r.Recall() != 1 || r.Precision() != 1 || r.F1() != 1 {
		t.Errorf("perfect detection scored %v", r)
	}
}

func TestMissesReduceRecall(t *testing.T) {
	r := Evaluate([]int{10, 20, 30, 40}, []int{10, 30}, 0)
	if r.Recall() != 0.5 {
		t.Errorf("recall = %v, want 0.5", r.Recall())
	}
	if r.Precision() != 1 {
		t.Errorf("precision = %v, want 1", r.Precision())
	}
}

func TestFalsePositivesReducePrecision(t *testing.T) {
	r := Evaluate([]int{10}, []int{10, 15, 25}, 0)
	if r.Precision() != 1.0/3 {
		t.Errorf("precision = %v, want 1/3", r.Precision())
	}
	if r.Recall() != 1 {
		t.Errorf("recall = %v, want 1", r.Recall())
	}
}

func TestToleranceWindow(t *testing.T) {
	// Detection one frame off matches with tolerance 1, not 0.
	if r := Evaluate([]int{10}, []int{11}, 0); r.Correct != 0 {
		t.Error("off-by-one matched at tolerance 0")
	}
	if r := Evaluate([]int{10}, []int{11}, 1); r.Correct != 1 {
		t.Error("off-by-one missed at tolerance 1")
	}
	if r := Evaluate([]int{10}, []int{12}, 1); r.Correct != 0 {
		t.Error("off-by-two matched at tolerance 1")
	}
}

func TestNoDoubleCounting(t *testing.T) {
	// One detection cannot satisfy two truths.
	r := Evaluate([]int{10, 11}, []int{10}, 1)
	if r.Correct != 1 {
		t.Errorf("correct = %d, want 1 (no double counting)", r.Correct)
	}
	// Two detections near one truth: only one counts.
	r = Evaluate([]int{10}, []int{9, 11}, 1)
	if r.Correct != 1 {
		t.Errorf("correct = %d, want 1", r.Correct)
	}
	if r.Precision() != 0.5 {
		t.Errorf("precision = %v, want 0.5", r.Precision())
	}
}

func TestNearestMatchPreferred(t *testing.T) {
	// Truth at 10; detections at 9 and 10: the exact one is consumed,
	// leaving 9 unmatched.
	r := Evaluate([]int{10, 9}, nil, 1)
	_ = r
	r2 := Evaluate([]int{10}, []int{9, 10}, 1)
	if r2.Correct != 1 {
		t.Fatalf("correct = %d", r2.Correct)
	}
}

func TestEmptyCases(t *testing.T) {
	r := Evaluate(nil, nil, 1)
	if r.Recall() != 1 || r.Precision() != 1 {
		t.Errorf("empty case scored %v", r)
	}
	r = Evaluate(nil, []int{5}, 1)
	if r.Precision() != 0 || r.Recall() != 1 {
		t.Errorf("spurious detection scored %v", r)
	}
	r = Evaluate([]int{5}, nil, 1)
	if r.Recall() != 0 || r.Precision() != 1 {
		t.Errorf("missed boundary scored %v", r)
	}
	if r.F1() != 0 {
		t.Errorf("F1 = %v, want 0", r.F1())
	}
}

func TestNegativeToleranceClamped(t *testing.T) {
	r := Evaluate([]int{10}, []int{10}, -5)
	if r.Correct != 1 {
		t.Error("negative tolerance broke exact matching")
	}
}

func TestAdd(t *testing.T) {
	a := Result{Actual: 10, Detected: 8, Correct: 7}
	b := Result{Actual: 5, Detected: 6, Correct: 4}
	a.Add(b)
	if a.Actual != 15 || a.Detected != 14 || a.Correct != 11 {
		t.Errorf("Add gave %+v", a)
	}
}

// TestCorrectBounded: Correct never exceeds min(Actual, Detected), and
// recall/precision stay in [0,1] on random inputs.
func TestCorrectBounded(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var truth, det []int
		pos := 0
		for i := 0; i < 50; i++ {
			pos += 1 + r.Intn(10)
			if r.Bool(0.5) {
				truth = append(truth, pos)
			}
			if r.Bool(0.5) {
				det = append(det, pos+r.Intn(3)-1)
			}
		}
		// det may be slightly out of order after jitter; fix.
		for i := 1; i < len(det); i++ {
			if det[i] < det[i-1] {
				det[i] = det[i-1]
			}
		}
		res := Evaluate(truth, det, 1)
		if res.Correct > res.Actual || res.Correct > res.Detected {
			return false
		}
		rc, pr := res.Recall(), res.Precision()
		return rc >= 0 && rc <= 1 && pr >= 0 && pr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	s := Result{Actual: 4, Detected: 4, Correct: 3}.String()
	if s == "" {
		t.Error("empty String()")
	}
}
