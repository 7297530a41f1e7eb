// Package fault is the deterministic fault-injection plane threaded
// through the simulated machine: delayed and dropped shootdown kicks in
// the IPI fabric (internal/apic), stalled responders and slow
// acknowledgements in the interrupt and SMP layers (internal/kernel,
// internal/smp), spurious TLB evictions and PCID-recycling pressure in
// the translation path, and preemption storms at kernel entry.
//
// Every decision is drawn from a splittable PRNG keyed by
// (seed, site, occurrence-index): the n-th query of a site always gets
// the same answer for a given seed, no matter how many worker goroutines
// run other worlds concurrently or how sites interleave. A failing
// schedule therefore replays byte-identically from a one-line repro
// (`tlbfuzz -faults <spec> -seed N -parallel 1`).
//
// The plane owns no recovery policy; it only makes the machine hostile.
// The matching robustness layer — kick-timeout detection, bounded
// retry/backoff, degradation to a full flush — lives in internal/smp and
// internal/kernel and is armed whenever a plane is attached (unless the
// spec's NoRetry flag deliberately breaks it, which the sanitizer must
// then catch as an unacknowledged IPI).
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Site identifies one class of injection point. Each site has its own
// occurrence counter, so decisions at one site never perturb another's
// stream — the "splittable" property the determinism tests rely on.
type Site uint8

const (
	// SiteIPIDelay adds wire latency to a maskable IPI delivery. Because
	// each delivery draws its own delay, concurrent deliveries reorder.
	SiteIPIDelay Site = iota
	// SiteIPIDrop loses a shootdown kick (VectorCallFunction only: NMIs
	// are never lost by the fabric, and losing reschedule kicks would
	// model scheduler bugs, not TLB-protocol hostility).
	SiteIPIDrop
	// SiteRespStall stalls a responder between interrupt assertion and
	// dispatch (SMI, deep C-state exit, host preemption).
	SiteRespStall
	// SiteAckDelay delays the responder's acknowledgement store.
	SiteAckDelay
	// SiteTLBEvict spuriously evicts a just-filled TLB entry
	// (conflict-pressure model).
	SiteTLBEvict
	// SitePCIDRecycle drops an incoming mm's PCID-tagged entries on
	// address-space switch (PCID-allocator pressure).
	SitePCIDRecycle
	// SitePreempt inserts a preemption pause at kernel entry (a
	// daemon-storm scheduling delay).
	SitePreempt

	// NumSites is the number of injection-site classes.
	NumSites
)

// String names the site.
func (s Site) String() string {
	switch s {
	case SiteIPIDelay:
		return "ipi-delay"
	case SiteIPIDrop:
		return "ipi-drop"
	case SiteRespStall:
		return "resp-stall"
	case SiteAckDelay:
		return "ack-delay"
	case SiteTLBEvict:
		return "tlb-evict"
	case SitePCIDRecycle:
		return "pcid-recycle"
	case SitePreempt:
		return "preempt"
	default:
		return fmt.Sprintf("site(%d)", uint8(s))
	}
}

// Decide is the splittable PRNG: a pure function of (seed, site, index).
// It is the whole determinism contract — the plane's per-site occurrence
// counters merely supply index, so the n-th decision at a site depends on
// nothing but the seed. The mixer is the splitmix64 finalizer applied to
// a per-site stream key, giving full avalanche between adjacent indices
// and decorrelated streams for distinct sites.
func Decide(seed uint64, site Site, index uint64) uint64 {
	z := fmix(seed + 0x9e3779b97f4a7c15*(uint64(site)+1))
	return fmix(z + 0x9e3779b97f4a7c15*(index+1))
}

func fmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hits converts a raw draw into a probability decision: the top 53 bits
// form a uniform float in [0,1), compared against p. Exact for p<=0 and
// p>=1, portable for the rest (IEEE-754 double, no platform variance).
func hits(u uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(u>>11)/(1<<53) < p
}

// magnitude derives a cycle count in [1,max] from the same draw that made
// the hit decision (re-mixed with a salt so the low bits of the decision
// and the magnitude are independent).
func magnitude(u, max uint64) uint64 {
	if max == 0 {
		return 0
	}
	return 1 + fmix(u^0xd6e8feb86659fd93)%max
}

// Spec is a fault schedule: per-site probabilities and magnitude bounds.
// The zero Spec injects nothing. Magnitudes are cycle counts drawn
// uniformly from [1,Max] on a hit.
type Spec struct {
	// DelayP/DelayMax govern SiteIPIDelay.
	DelayP   float64
	DelayMax uint64
	// DropP governs SiteIPIDrop. DropBurstMax bounds consecutive drops of
	// the site (0 means the default, DefaultDropBurst): after that many
	// losses in a row the next kick is force-delivered, so retry loops
	// stay live even at DropP=1.
	DropP        float64
	DropBurstMax int
	// StallP/StallMax govern SiteRespStall.
	StallP   float64
	StallMax uint64
	// AckDelayP/AckDelayMax govern SiteAckDelay.
	AckDelayP   float64
	AckDelayMax uint64
	// EvictP governs SiteTLBEvict.
	EvictP float64
	// RecycleP governs SitePCIDRecycle.
	RecycleP float64
	// PreemptP/PreemptMax govern SitePreempt.
	PreemptP   float64
	PreemptMax uint64
	// NoRetry disables the recovery layer (kick timeout + retry +
	// degradation) while the faults stay on: the deliberately broken
	// configuration the oracle stack must flag as an unacked IPI.
	NoRetry bool
}

// DefaultDropBurst is the consecutive-drop bound applied when
// Spec.DropBurstMax is zero.
const DefaultDropBurst = 4

// Zero reports whether the spec injects no faults at all (NoRetry alone
// is inert: with nothing injected there is nothing to recover from).
func (s Spec) Zero() bool {
	return s.DelayP <= 0 && s.DropP <= 0 && s.StallP <= 0 &&
		s.AckDelayP <= 0 && s.EvictP <= 0 && s.RecycleP <= 0 && s.PreemptP <= 0
}

// String renders the spec in the canonical form Parse accepts, with
// fields in a fixed order so repro lines are stable.
func (s Spec) String() string {
	if s.Zero() && !s.NoRetry {
		return "none"
	}
	var parts []string
	pm := func(key string, p float64, max uint64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%s:%d", key, formatP(p), max))
		}
	}
	pm("delay", s.DelayP, s.DelayMax)
	if s.DropP > 0 {
		parts = append(parts, "drop="+formatP(s.DropP))
		if s.DropBurstMax > 0 {
			parts = append(parts, "dropburst="+strconv.Itoa(s.DropBurstMax))
		}
	}
	pm("stall", s.StallP, s.StallMax)
	pm("ackdelay", s.AckDelayP, s.AckDelayMax)
	if s.EvictP > 0 {
		parts = append(parts, "evict="+formatP(s.EvictP))
	}
	if s.RecycleP > 0 {
		parts = append(parts, "recycle="+formatP(s.RecycleP))
	}
	pm("preempt", s.PreemptP, s.PreemptMax)
	if s.NoRetry {
		parts = append(parts, "noretry")
	}
	return strings.Join(parts, ",")
}

func formatP(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// Preset returns a named schedule, ok=false for unknown names.
//
//	none   — no injection (the zero Spec)
//	light  — mild background hostility; CI's default faulted sweep
//	heavy  — aggressive delays, drops and stalls
//	drop   — concentrated kick loss, exercising the retry path hard
//	broken — drop with the recovery layer disabled (must be caught)
func Preset(name string) (Spec, bool) {
	switch name {
	case "none":
		return Spec{}, true
	case "light":
		return Spec{
			DelayP: 0.15, DelayMax: 2000,
			DropP:  0.05,
			StallP: 0.05, StallMax: 4000,
			AckDelayP: 0.05, AckDelayMax: 1500,
			EvictP:   0.02,
			RecycleP: 0.02,
			PreemptP: 0.03, PreemptMax: 3000,
		}, true
	case "heavy":
		return Spec{
			DelayP: 0.5, DelayMax: 8000,
			DropP:  0.25,
			StallP: 0.25, StallMax: 20000,
			AckDelayP: 0.2, AckDelayMax: 6000,
			EvictP:   0.1,
			RecycleP: 0.1,
			PreemptP: 0.15, PreemptMax: 12000,
		}, true
	case "drop":
		return Spec{DropP: 0.6}, true
	case "broken":
		return Spec{DropP: 1, NoRetry: true}, true
	default:
		return Spec{}, false
	}
}

// PresetNames lists the preset names in stable order.
func PresetNames() []string {
	names := []string{"none", "light", "heavy", "drop", "broken"}
	sort.Strings(names)
	return names
}

// Parse reads a fault-schedule string: a comma-separated list whose
// elements are preset names (applied as a base, later elements override
// field-wise), `key=p` or `key=p:max` assignments, or the bare flag
// `noretry`. Keys: delay, drop, dropburst, stall, ackdelay, evict,
// recycle, preempt.
//
//	Parse("light")              // preset
//	Parse("drop=0.5,stall=0.2:10000")
//	Parse("light,noretry")      // preset with the recovery layer off
func Parse(in string) (Spec, error) {
	var s Spec
	in = strings.TrimSpace(in)
	if in == "" {
		return s, nil
	}
	for _, tok := range strings.Split(in, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if p, ok := Preset(tok); ok {
			noRetry := s.NoRetry
			s = p
			s.NoRetry = s.NoRetry || noRetry
			continue
		}
		if tok == "noretry" {
			s.NoRetry = true
			continue
		}
		key, val, found := strings.Cut(tok, "=")
		if !found {
			return Spec{}, fmt.Errorf("fault: %q is neither a preset (%s), noretry, nor key=value", tok, strings.Join(PresetNames(), ", "))
		}
		if key == "dropburst" {
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("fault: dropburst wants a positive integer, got %q", val)
			}
			s.DropBurstMax = n
			continue
		}
		pStr, maxStr, hasMax := strings.Cut(val, ":")
		p, err := strconv.ParseFloat(pStr, 64)
		if err != nil || !(p >= 0 && p <= 1) { // also rejects NaN
			return Spec{}, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", key, pStr)
		}
		var max uint64
		if hasMax {
			max, err = strconv.ParseUint(maxStr, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: %s wants p:maxcycles, got %q", key, val)
			}
		}
		switch key {
		case "delay":
			s.DelayP, s.DelayMax = p, max
		case "drop":
			if hasMax {
				return Spec{}, fmt.Errorf("fault: drop takes no magnitude (got %q); use dropburst=N for the burst bound", val)
			}
			s.DropP = p
		case "stall":
			s.StallP, s.StallMax = p, max
		case "ackdelay":
			s.AckDelayP, s.AckDelayMax = p, max
		case "evict":
			if hasMax {
				return Spec{}, fmt.Errorf("fault: evict takes no magnitude (got %q)", val)
			}
			s.EvictP = p
		case "recycle":
			if hasMax {
				return Spec{}, fmt.Errorf("fault: recycle takes no magnitude (got %q)", val)
			}
			s.RecycleP = p
		case "preempt":
			s.PreemptP, s.PreemptMax = p, max
		default:
			return Spec{}, fmt.Errorf("fault: unknown key %q", key)
		}
	}
	// A magnitude or burst bound whose probability is zero is inert, and
	// String omits it; drop it so Parse(s.String()) == s for every spec
	// Parse accepts.
	if s.DelayP == 0 {
		s.DelayMax = 0
	}
	if s.DropP == 0 {
		s.DropBurstMax = 0
	}
	if s.StallP == 0 {
		s.StallMax = 0
	}
	if s.AckDelayP == 0 {
		s.AckDelayMax = 0
	}
	if s.PreemptP == 0 {
		s.PreemptMax = 0
	}
	return s, nil
}

// Stats counts the faults a plane actually injected.
type Stats struct {
	// Delays / Drops / Stalls / AckDelays / Evictions / Recycles /
	// Preempts count hits per site.
	Delays, Drops, Stalls, AckDelays, Evictions, Recycles, Preempts uint64
	// ForcedDeliveries counts kicks the burst bound force-delivered after
	// DropBurstMax consecutive losses (the liveness escape hatch).
	ForcedDeliveries uint64
}

// Add accumulates other into s (order-independent merge).
func (s *Stats) Add(other Stats) {
	s.Delays += other.Delays
	s.Drops += other.Drops
	s.Stalls += other.Stalls
	s.AckDelays += other.AckDelays
	s.Evictions += other.Evictions
	s.Recycles += other.Recycles
	s.Preempts += other.Preempts
	s.ForcedDeliveries += other.ForcedDeliveries
}

// Plane is one world's fault state: the spec, the per-site occurrence
// counters, and the injected-fault counters. It belongs to a single
// simulated machine and is only touched from that machine's engine
// goroutine, so it needs no locking. All methods are nil-safe: a nil
// *Plane injects nothing and keeps every protocol path cycle-identical
// to an unfaulted build.
type Plane struct {
	seed    uint64
	spec    Spec
	occ     [NumSites]uint64
	dropRun int
	stats   Stats
}

// New builds a plane for one world. Worlds with the same (seed, spec)
// make identical decisions.
func New(seed uint64, spec Spec) *Plane {
	return &Plane{seed: seed, spec: spec}
}

// Seed returns the plane's seed (0 for a nil plane).
func (pl *Plane) Seed() uint64 {
	if pl == nil {
		return 0
	}
	return pl.seed
}

// Spec returns the plane's schedule (the zero Spec for a nil plane).
func (pl *Plane) Spec() Spec {
	if pl == nil {
		return Spec{}
	}
	return pl.spec
}

// Stats returns the injected-fault counters so far.
func (pl *Plane) Stats() Stats {
	if pl == nil {
		return Stats{}
	}
	return pl.stats
}

// Active reports whether a plane is attached.
func (pl *Plane) Active() bool { return pl != nil }

// RecoveryArmed reports whether the shootdown recovery layer should run:
// true whenever a plane is attached and the spec does not deliberately
// break it. With no plane there is nothing to recover from, and keeping
// the timeout path disabled leaves fault-free runs cycle-identical to a
// machine without the recovery code.
func (pl *Plane) RecoveryArmed() bool { return pl != nil && !pl.spec.NoRetry }

// roll advances site's occurrence counter and returns its draw.
func (pl *Plane) roll(site Site) uint64 {
	i := pl.occ[site]
	pl.occ[site]++
	return Decide(pl.seed, site, i)
}

// draw makes one probability decision at site, returning the magnitude in
// [1,max] on a hit (0,false on a miss or for a nil/idle site).
func (pl *Plane) draw(site Site, p float64, max uint64) (uint64, bool) {
	if pl == nil || p <= 0 {
		return 0, false
	}
	u := pl.roll(site)
	if !hits(u, p) {
		return 0, false
	}
	return magnitude(u, max), true
}

// DeliverDelay returns extra wire latency for one maskable IPI delivery
// (0 = none). Per-delivery draws make concurrent deliveries reorder.
func (pl *Plane) DeliverDelay() uint64 {
	d, ok := pl.draw(SiteIPIDelay, pl.Spec().DelayP, pl.Spec().DelayMax)
	if !ok {
		return 0
	}
	pl.stats.Delays++
	return d
}

// DropKick reports whether to lose one shootdown kick. Consecutive drops
// are bounded by the spec's burst limit: after DropBurstMax losses in a
// row the next kick is force-delivered (counted in ForcedDeliveries), so
// the retry layer's re-sends always land eventually, even at DropP=1.
func (pl *Plane) DropKick() bool {
	if pl == nil || pl.spec.DropP <= 0 {
		return false
	}
	if _, ok := pl.draw(SiteIPIDrop, pl.spec.DropP, 0); !ok {
		pl.dropRun = 0
		return false
	}
	burst := pl.spec.DropBurstMax
	if burst <= 0 {
		burst = DefaultDropBurst
	}
	if pl.dropRun >= burst {
		pl.dropRun = 0
		pl.stats.ForcedDeliveries++
		return false
	}
	pl.dropRun++
	pl.stats.Drops++
	return true
}

// ResponderStall returns a dispatch stall for one taken IRQ (0 = none).
func (pl *Plane) ResponderStall() uint64 {
	d, ok := pl.draw(SiteRespStall, pl.Spec().StallP, pl.Spec().StallMax)
	if !ok {
		return 0
	}
	pl.stats.Stalls++
	return d
}

// AckDelay returns a delay for one acknowledgement store (0 = none).
func (pl *Plane) AckDelay() uint64 {
	d, ok := pl.draw(SiteAckDelay, pl.Spec().AckDelayP, pl.Spec().AckDelayMax)
	if !ok {
		return 0
	}
	pl.stats.AckDelays++
	return d
}

// EvictOnFill reports whether to spuriously evict a just-filled entry.
func (pl *Plane) EvictOnFill() bool {
	if _, ok := pl.draw(SiteTLBEvict, pl.Spec().EvictP, 0); !ok {
		return false
	}
	pl.stats.Evictions++
	return true
}

// PCIDRecycle reports whether an address-space switch finds its PCIDs
// recycled (cached entries gone, generation state cold).
func (pl *Plane) PCIDRecycle() bool {
	if _, ok := pl.draw(SitePCIDRecycle, pl.Spec().RecycleP, 0); !ok {
		return false
	}
	pl.stats.Recycles++
	return true
}

// PreemptDelay returns a preemption pause for one kernel entry (0 = none).
func (pl *Plane) PreemptDelay() uint64 {
	d, ok := pl.draw(SitePreempt, pl.Spec().PreemptP, pl.Spec().PreemptMax)
	if !ok {
		return 0
	}
	pl.stats.Preempts++
	return d
}
