package fixture

import (
	"errors"
	"fmt"
)

// flushCount is cross-world mutable state: two concurrently booted
// machines would increment the same counter.
var flushCount int // want finding

var lastWorld, bootSeq = "", 0 // want 2 findings

// ErrBadFlush is an immutable error sentinel: allowed.
var ErrBadFlush = errors.New("fixture: bad flush")

var (
	// ErrStale and ErrWrapped are sentinels too, even grouped.
	ErrStale   = errors.New("fixture: stale entry")
	ErrWrapped = fmt.Errorf("fixture: wrapped %d", 7)
)

// hook is set once before any world boots and only read afterwards, which
// does not make it per-world state.
var hook func() // want finding

// mode is written only through a save/restore setter, which no longer
// exempts it either.
var mode string // want finding

func setMode(m string) (restore func()) {
	prev := mode
	mode = m
	return func() { mode = prev }
}

var (
	// tick is mutable even though it hides in a group with a sentinel.
	tick    uint64 // want finding
	ErrTick = errors.New("fixture: tick")
)

func touch() {
	flushCount++
	bootSeq++
	lastWorld = "w"
	tick++
	if hook != nil {
		hook()
	}
	_ = errors.Is(ErrStale, ErrBadFlush)
	_ = ErrWrapped
	_ = ErrTick
}
