package stagegraph

import (
	"fmt"
	"strings"
)

// Describe renders a compiled stage graph as text: per-stage geometry plus
// the schedule summary. Endpoints may be nil — description never touches
// data — so plans can describe graphs without binding arrays.
func Describe(stages []Stage) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage graph: %d stages, fused cross-stage schedule\n", len(stages))
	totalIters := 0
	for i := range stages {
		st := &stages[i]
		totalIters += st.Iters
		sunits, slen := st.storeGeometry()
		fmt.Fprintf(&b, "  stage %d %-10s iters=%-5d load %d×%d elems/block, store %d×%d via rotation %d×%d\n",
			i, st.Name, st.Iters, st.Units, st.UnitLen, sunits, slen, st.Rot.Blocks, st.Rot.BlockLen)
	}
	steps := Steps(stages)
	fmt.Fprintf(&b, "  schedule: %d iterations in %d steps, 1 drain", totalIters, steps)
	if len(stages) > 1 {
		fmt.Fprintf(&b, "; boundary stores overlap next-stage loads")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  fill overhead: %.4f\n", float64(steps)/float64(totalIters))
	return b.String()
}
