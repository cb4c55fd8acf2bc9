package pipeline

import (
	"safespec/internal/isa"
	"safespec/internal/mem"
)

// commit retires finished instructions from thread t's ROB head, in order.
// budget is the remaining CommitWidth shared across threads this cycle; one
// unit is consumed per committed instruction. Faults are raised here
// (precise exceptions): the faulting instruction's effects — including its
// shadow state, under WFC — are annulled, everything younger on the same
// thread is squashed, and that thread's front end vectors to the trap
// handler.
func (c *CPU) commit(t *thread, budget *int) {
	for *budget > 0 && t.count > 0 {
		idx := t.head
		e := &t.rob[idx]
		if e.state != stDone {
			return
		}
		c.active = true

		if e.fault != mem.FaultNone {
			if c.tracing() {
				c.tracef("TRAP    %s fault=%v", traceEntry(e), e.fault)
			}
			c.trap(t, e)
			return
		}
		if c.tracing() {
			c.tracef("commit  %s val=%d", traceEntry(e), e.val)
		}

		// Apply architectural effects.
		if e.in.HasDest() {
			t.regs[e.in.Rd] = e.val
			if ref := t.renm[e.in.Rd]; ref.has && ref.idx == idx && ref.seq == e.seq {
				t.renm[e.in.Rd] = renameRef{}
			}
		}
		switch isa.ClassOf(e.in.Op) {
		case isa.ClassStore:
			// TSO: the memory write and the cache update happen here, at
			// commit, so stores never expose speculative state (paper
			// Section IV-B).
			if err := t.ms.Mem.WritePhys(e.pa, e.sdata); err != nil {
				// Unmapped stores fault instead (checked at execute), so a
				// physical write failure is a simulator bug.
				panic("pipeline: committed store to unmapped frame")
			}
			t.ms.Hier.FillData(e.pa)
			t.st.CommittedStores++
		case isa.ClassLoad:
			t.st.CommittedLoads++
		case isa.ClassFlush:
			// clflush takes effect at commit so that squashed flushes leave
			// no trace. It also purges the shadow caches: a flushed line
			// must not be observable anywhere.
			t.ms.FlushLine(e.va)
		case isa.ClassFence:
			t.fenceActive--
		case isa.ClassHalt:
			t.halted = true
		}

		// SafeSpec state motion: WFC moves at commit; under WFB anything
		// already moved at issue/resolution leaves nothing behind and this
		// call is a no-op (commit empties the handle set).
		if c.cfg.Mode.SafeSpec() {
			e.sh.commit(t.ms)
		}

		if e.isLoad {
			t.ldqCount--
		}
		if e.isStore {
			t.stqCount--
			clearBit(t.storeMask, idx)
		}
		if e.tagBit != 0 {
			// A correctly-resolved branch already released its tag in
			// clearTag; reaching commit with a live tag means the branch
			// resolved this cycle — clear defensively.
			t.activeTags &^= e.tagBit
			e.tagBit = 0
		}
		// Branch resolution already recycled the RAS snapshot; keep the
		// free list exact if one ever survives to commit.
		t.releaseRASSnap(e)

		t.head = (t.head + 1) % len(t.rob)
		t.count--
		t.st.Committed++
		*budget--

		if t.halted {
			return
		}
	}
}

// trap raises the fault carried by e on thread t: e and everything younger
// on t are squashed (annulling their shadow state — this is what stops
// Meltdown under WFC), and t's front end vectors to the program's trap
// handler. Sibling threads are unaffected: faults are a per-context event.
func (c *CPU) trap(t *thread, e *entry) {
	t.st.Faults++
	handler := c.prog.TrapHandler

	// Squash the whole window including the faulting instruction itself.
	if in := c.intro; in != nil {
		in.TrapSquashes++
		in.SquashedByTrap += uint64(t.count) - 1 // minus the faulting instruction, matching Stats.Squashed
	}
	c.squashAll(t)
	t.st.Squashed-- // the faulting instruction counts as a fault, not a squash

	if handler < 0 {
		t.halted = true
		return
	}
	t.st.Traps++
	t.fenceActive = 0
	c.flushFetch(t, handler)
}
