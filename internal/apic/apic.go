// Package apic models a per-CPU local interrupt controller and the x2APIC
// inter-processor-interrupt fabric in cluster mode.
//
// On Intel CPUs with more than 8 logical processors, the x2APIC groups CPUs
// into clusters of up to 16 and a multicast IPI can only address a subset
// of a single cluster (paper §2.2). The Bus therefore charges the initiator
// one ICR write per cluster touched, and delivers to each target after a
// topology-dependent wire latency. Interrupt masking and NMI bypass are
// modeled so the shootdown protocol sees realistic delivery behaviour.
package apic

import (
	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

// Vector is an interrupt vector number.
type Vector uint8

// Vectors used by the simulated kernel, mirroring Linux's layout.
const (
	// VectorNMI is the non-maskable interrupt.
	VectorNMI Vector = 2
	// VectorCallFunction is the SMP function-call (TLB shootdown) vector.
	VectorCallFunction Vector = 0xfb
	// VectorReschedule is the scheduler kick vector.
	VectorReschedule Vector = 0xfd
)

// ClusterSize is the x2APIC logical-mode cluster width.
const ClusterSize = 16

// IRQ is one delivered interrupt.
type IRQ struct {
	Vector Vector
	From   mach.CPU
	SentAt sim.Time
}

// Controller is a per-CPU local APIC: it queues delivered interrupts and
// notifies its CPU model when one becomes deliverable.
type Controller struct {
	cpu     mach.CPU
	masked  bool
	pending []IRQ

	// notify is invoked (at delivery time, on the engine goroutine)
	// whenever a deliverable interrupt is enqueued. The CPU model uses it
	// to wake its process. NMIs always notify.
	notify func()
}

// SetNotify installs the wakeup callback.
func (c *Controller) SetNotify(fn func()) { c.notify = fn }

// SetMasked sets the interrupt-flag state (true = IF clear, IRQs held).
// Unmasking with pending interrupts triggers the notify callback.
func (c *Controller) SetMasked(m bool) {
	was := c.masked
	c.masked = m
	if was && !m && len(c.pending) > 0 && c.notify != nil {
		c.notify()
	}
}

// Masked reports whether maskable interrupts are currently held.
func (c *Controller) Masked() bool { return c.masked }

// Deliverable reports whether an interrupt can be taken right now.
func (c *Controller) Deliverable() bool {
	if len(c.pending) == 0 {
		return false
	}
	if !c.masked {
		return true
	}
	for _, irq := range c.pending {
		if irq.Vector == VectorNMI {
			return true
		}
	}
	return false
}

// Take dequeues the next deliverable interrupt (NMIs first, then FIFO).
// ok is false when nothing is deliverable.
func (c *Controller) Take() (IRQ, bool) {
	for i, irq := range c.pending {
		if irq.Vector == VectorNMI {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return irq, true
		}
	}
	if c.masked || len(c.pending) == 0 {
		return IRQ{}, false
	}
	// Shift in place rather than reslicing past the head, so the array's
	// capacity survives and later injects do not regrow it.
	irq := c.pending[0]
	n := copy(c.pending, c.pending[1:])
	c.pending = c.pending[:n]
	return irq, true
}

// Pending returns the number of queued interrupts.
func (c *Controller) Pending() int { return len(c.pending) }

func (c *Controller) inject(irq IRQ) {
	c.pending = append(c.pending, irq)
	if (!c.masked || irq.Vector == VectorNMI) && c.notify != nil {
		c.notify()
	}
}

// Stats counts IPI fabric activity.
type Stats struct {
	// ICRWrites is the number of interrupt-command-register writes the
	// initiators paid for (one per cluster per send).
	ICRWrites uint64
	// IPIsDelivered is the number of interrupts injected into controllers.
	IPIsDelivered uint64
	// MulticastSends is the number of SendIPI calls with >1 target.
	MulticastSends uint64
	// IPIsDropped counts shootdown kicks the fault plane lost in the
	// fabric (the initiator paid the ICR write; nothing arrives).
	IPIsDropped uint64
	// IPIsDelayed counts deliveries the fault plane slowed beyond the
	// topology wire latency.
	IPIsDelayed uint64
}

// Bus is the IPI fabric connecting all controllers.
type Bus struct {
	eng   *sim.Engine
	topo  mach.Topology
	cost  *mach.CostModel
	ctrls []*Controller
	fault *fault.Plane
	stats Stats
	// free holds delivered in-flight IPIs for reuse (see deliverAfter).
	free []*inflight
}

// inflight is one IPI on the wire. Its fire func is bound once, when the
// record is first made, so a recycled record schedules its delivery
// without allocating a closure per IPI.
type inflight struct {
	to   mach.CPU
	irq  IRQ
	fire func()
}

// SetFaultPlane attaches the fault plane; nil detaches it. With no plane
// every delivery takes exactly the topology wire latency.
func (b *Bus) SetFaultPlane(pl *fault.Plane) { b.fault = pl }

// NewBus creates the fabric and one controller per logical CPU.
func NewBus(eng *sim.Engine, topo mach.Topology, cost *mach.CostModel) *Bus {
	b := &Bus{eng: eng, topo: topo, cost: cost}
	b.ctrls = make([]*Controller, topo.NumCPUs())
	for i := range b.ctrls {
		b.ctrls[i] = &Controller{cpu: mach.CPU(i)}
	}
	return b
}

// Controller returns the local APIC of cpu.
func (b *Bus) Controller(cpu mach.CPU) *Controller { return b.ctrls[cpu] }

// Stats returns a snapshot of fabric counters.
func (b *Bus) Stats() Stats { return b.stats }

// clusterOf returns the x2APIC cluster id of a CPU.
func clusterOf(cpu mach.CPU) int { return int(cpu) / ClusterSize }

// SendIPI sends vector from the initiator (running as p) to every CPU in
// targets. The call charges the initiator one ICR write per x2APIC cluster
// touched and returns once all ICR writes retire; deliveries land
// asynchronously after per-target wire latency. targets is read while the
// ICR writes retire, so the caller must not change it during the call.
func (b *Bus) SendIPI(p *sim.Proc, from mach.CPU, targets mach.CPUMask, vec Vector) {
	n := targets.Count()
	if n == 0 {
		return
	}
	if n > 1 {
		b.stats.MulticastSends++
	}
	lastCluster := -1
	targets.ForEach(func(t mach.CPU) {
		if cl := clusterOf(t); cl != lastCluster {
			p.Delay(b.cost.IPIWriteICR)
			b.stats.ICRWrites++
			lastCluster = cl
		}
		b.deliverAfter(from, t, vec)
	})
}

// SendNMI sends a non-maskable interrupt to one CPU.
func (b *Bus) SendNMI(p *sim.Proc, from, to mach.CPU) {
	p.Delay(b.cost.IPIWriteICR)
	b.stats.ICRWrites++
	b.deliverAfter(from, to, VectorNMI)
}

func (b *Bus) deliverAfter(from, to mach.CPU, vec Vector) {
	lat := b.cost.IPIDeliverCost(b.topo.DistanceBetween(from, to))
	// Fault plane: only the shootdown kick is droppable — the request
	// stays queued on the target's CSQ, so a lost kick is recoverable by
	// re-sending. NMIs are never perturbed (the early-ack protocol's
	// correctness leans on their promptness), and reschedule kicks are
	// scheduler traffic, not shootdown protocol under test.
	if vec == VectorCallFunction {
		if b.fault.DropKick() {
			b.stats.IPIsDropped++
			return
		}
		if d := b.fault.DeliverDelay(); d > 0 {
			b.stats.IPIsDelayed++
			lat += d
		}
	}
	var w *inflight
	if n := len(b.free); n > 0 {
		w = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		w = &inflight{}
		w.fire = func() {
			b.stats.IPIsDelivered++
			to, irq := w.to, w.irq
			b.free = append(b.free, w)
			b.ctrls[to].inject(irq)
		}
	}
	w.to = to
	w.irq = IRQ{Vector: vec, From: from, SentAt: b.eng.Now()}
	b.eng.After(lat, w.fire)
}
