// Fixture: non-test simulator code importing wall-clock and PRNG packages.
package detimportfix

import (
	"math/rand"
	"time"
)

func seedFromClock() int64 {
	rand.Seed(1)
	return time.Now().UnixNano()
}
