package incremental

import (
	"math/rand"

	"repro/internal/edit"
)

// The wire test lives in package incremental_test, because it needs a
// real cfixd, which imports this package. These names reach the
// multi-function edit script from there and exist only in the test
// binary.

// PlantedFuncs is the multi-function script's addition to the unit.
const PlantedFuncs = plantedFuncs

// MultiFuncEdit draws edit class k of the multi-function script, modulo
// the number of classes, against text.
func MultiFuncEdit(k int, rng *rand.Rand, text string) (class string, deltas []edit.Delta) {
	c := multiFuncEdits[k%len(multiFuncEdits)]
	return c.name, c.make(rng, text)
}
