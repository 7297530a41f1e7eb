// Fixture: direct access to race-instrumented shared fields. It is
// typechecked inside internal/smp (the owner package), since the fields
// are unexported and no other package can name them. The lockset
// analyzer must report exactly three findings, all in peek: the two raw
// ring-field accesses sit in a unit without a detector site, and the
// acked read escapes the methods of Request. The accessor stays clean.
package smp

import "shootdown/internal/mach"

func peek(fc *fabricCPU, r *Request) bool {
	if fc.fabFlushAll { // BAD: no detector site reports this read
		return r.acked // BAD: acked is read only by Request's own methods
	}
	fc.fabPostSeq++ // BAD: no detector site reports this write (fabproof also convicts it: no ring entry backs the sequence)
	return false
}

// fullPending is an accessor: it reports its read to the detector, so
// the dynamic model sees the access the lockset proof covers.
func (l *Layer) fullPending(cpu mach.CPU) bool {
	fc := l.fabricOf(cpu)
	if l.rt != nil {
		l.rt.AtomicLoad(l.fabFullVar(cpu))
	}
	return fc.fabFlushAll
}
