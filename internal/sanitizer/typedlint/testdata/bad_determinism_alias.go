// Fixture: banned imports in the three disguised forms a name-based
// check would miss — aliased, blank and dot imports. The determinism
// analyzer keys on the import path, so all three fire (three findings).
package detfix

import (
	_ "math/rand"
	. "math/rand/v2"
	clock "time"
)

func wallNow() int64 { return clock.Now().UnixNano() }

func roll() int { return IntN(6) }
