package evalmeasure_test

import (
	"fmt"

	"videodb/internal/evalmeasure"
)

// ExampleEvaluate scores a detector against ground truth with the
// paper's recall/precision definitions (§5.1).
func ExampleEvaluate() {
	truth := []int{75, 100, 140, 170}
	detected := []int{75, 101, 170, 200} // one off-by-one, one miss, one false alarm
	res := evalmeasure.Evaluate(truth, detected, 1)
	fmt.Printf("recall %.2f precision %.2f\n", res.Recall(), res.Precision())
	// Output:
	// recall 0.75 precision 0.75
}
