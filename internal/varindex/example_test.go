package varindex_test

import (
	"fmt"

	"videodb/internal/varindex"
)

// ExampleIndex_Search shows the paper's query model: describe how much
// things change in the background and object areas, get matching shots.
func ExampleIndex_Search() {
	ix := varindex.New()
	// A static close-up (low background change, moderate object
	// change) and a fast action shot.
	ix.Add(varindex.Entry{Clip: "movie", Shot: 12, VarBA: 0.1, VarOA: 4})
	ix.Add(varindex.Entry{Clip: "movie", Shot: 31, VarBA: 12, VarOA: 5})
	ix.Build()

	// "Almost nothing changes in the background, the subject moves."
	q := varindex.Query{VarBA: 0.2, VarOA: 3.5}
	matches, err := ix.Search(q, varindex.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, m := range matches {
		fmt.Printf("%s (Dv %.2f)\n", m.Key(), m.Dv())
	}
	// Output:
	// movie#12 (Dv -1.68)
}
