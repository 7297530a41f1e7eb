package mm

import (
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// RWSem is a reader-writer semaphore for simulated processes, modeling
// mm->mmap_sem. Acquisition order is not strictly FIFO, but writers cannot
// be starved indefinitely in the closed workloads this repository runs:
// waiters recheck on every release broadcast, deterministically ordered by
// the engine.
type RWSem struct {
	eng  *sim.Engine
	name string
	// raceVar is the precomputed variable name the race detector tracks
	// the semaphore under.
	raceVar string
	readers int
	writer  bool
	changed *sim.Cond

	// Contended counts acquisitions that had to wait (for reports).
	Contended uint64

	obs *SemObserver
	// rt, when non-nil, receives acquire/release happens-before edges.
	// Separate from obs so the lockdep observer and the race detector can
	// coexist.
	rt *race.Detector
}

// SemObserver receives lock-event notifications for deadlock/lock-order
// checkers. Acquired fires after a successful acquisition (including the
// Try variants), Released after a release. Callbacks must be purely
// observational.
type SemObserver struct {
	Acquired func(s *RWSem, write bool)
	Released func(s *RWSem, write bool)
}

// SetObserver installs (or, with nil, removes) the lock-event observer.
func (s *RWSem) SetObserver(o *SemObserver) { s.obs = o }

// EnableRace attaches the happens-before checker: every acquisition joins
// the clocks of past releases, every release publishes the holder's clock.
// Read-side releases join (rather than overwrite) the semaphore's clock,
// so concurrent readers all stay ordered before the next writer.
func (s *RWSem) EnableRace(d *race.Detector) { s.rt = d }

func (s *RWSem) acquired(write bool) {
	s.rt.AcquireName(s.raceVar)
	if s.obs != nil && s.obs.Acquired != nil {
		s.obs.Acquired(s, write)
	}
}

func (s *RWSem) released(write bool) {
	s.rt.ReleaseName(s.raceVar)
	if s.obs != nil && s.obs.Released != nil {
		s.obs.Released(s, write)
	}
}

// NewRWSem returns an unlocked semaphore.
func NewRWSem(eng *sim.Engine, name string) *RWSem {
	return &RWSem{eng: eng, name: name, raceVar: "sem:" + name, changed: eng.NewCond()}
}

// Name returns the diagnostic name.
func (s *RWSem) Name() string { return s.name }

// TryDownRead acquires for reading without blocking; it reports success.
func (s *RWSem) TryDownRead() bool {
	if s.writer {
		return false
	}
	s.readers++
	s.acquired(false)
	return true
}

// TryDownWrite acquires exclusively without blocking; it reports success.
func (s *RWSem) TryDownWrite() bool {
	if s.writer || s.readers > 0 {
		return false
	}
	s.writer = true
	s.acquired(true)
	return true
}

// Changed returns the cond broadcast on every release, so callers can
// build interruptible waits (the kernel layer waits on it while still
// servicing IPIs, as a task sleeping in down_read does).
func (s *RWSem) Changed() *sim.Cond { return s.changed }

// NoteContention bumps the contention counter (used by Try-based waiters).
func (s *RWSem) NoteContention() { s.Contended++ }

// DownRead acquires the semaphore for reading, blocking while a writer
// holds it.
func (s *RWSem) DownRead(p *sim.Proc) {
	for s.writer {
		s.Contended++
		s.changed.Wait(p)
	}
	s.readers++
	s.acquired(false)
}

// UpRead releases a read acquisition.
func (s *RWSem) UpRead(p *sim.Proc) {
	if s.readers <= 0 {
		panic("mm: UpRead without DownRead on " + s.name)
	}
	s.readers--
	if s.readers == 0 {
		s.changed.Broadcast()
	}
	s.released(false)
}

// DownWrite acquires the semaphore exclusively.
func (s *RWSem) DownWrite(p *sim.Proc) {
	for s.writer || s.readers > 0 {
		s.Contended++
		s.changed.Wait(p)
	}
	s.writer = true
	s.acquired(true)
}

// UpWrite releases an exclusive acquisition.
func (s *RWSem) UpWrite(p *sim.Proc) {
	if !s.writer {
		panic("mm: UpWrite without DownWrite on " + s.name)
	}
	s.writer = false
	s.changed.Broadcast()
	s.released(true)
}

// HeldForWrite reports whether a writer currently holds the semaphore.
func (s *RWSem) HeldForWrite() bool { return s.writer }

// Readers returns the current reader count.
func (s *RWSem) Readers() int { return s.readers }
