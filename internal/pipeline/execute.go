package pipeline

import (
	"safespec/internal/isa"
	"safespec/internal/mem"
)

// execute runs the issue and writeback logic for thread t this cycle:
// finished instructions write back (resolving branches, possibly
// squashing), and waiting instructions with ready operands issue subject to
// the issue width and port limits. issued/loads/stores are the port budgets
// shared across threads this cycle. The event-driven scheduler (sched.go)
// touches only the entries that act this cycle; the reference scan
// rediscovers them by walking the whole window and is kept for differential
// testing.
func (c *CPU) execute(t *thread, issued, loads, stores *int) {
	if c.refSched {
		c.executeScan(t, issued, loads, stores)
		return
	}
	c.executeEvent(t, issued, loads, stores)
}

// executeScan is the reference O(ROB-entries) issue/writeback stage.
func (c *CPU) executeScan(t *thread, issued, loads, stores *int) {
	for i := 0; i < t.count; i++ {
		idx := t.slot(i)
		e := &t.rob[idx]
		switch e.state {
		case stExec:
			if e.completeAt <= c.cycle {
				c.active = true
				if squashed := c.writeback(t, idx, e); squashed {
					return // younger entries are gone; resume next cycle
				}
			}
		case stWait:
			if *issued >= c.cfg.IssueWidth {
				continue
			}
			if e.isLoad && *loads >= 2 {
				continue
			}
			if e.isStore && *stores >= 1 {
				continue
			}
			if c.tryIssue(t, idx, e) != issueOK {
				continue
			}
			c.active = true
			*issued++
			if e.isLoad {
				*loads++
			}
			if e.isStore {
				*stores++
			}
		}
	}
}

// issueOutcome classifies a failed (or successful) issue attempt so the
// event scheduler knows whether to drop the entry from the ready queue
// (issueOperands, issueStoreWait: a producer's writeback or the blocking
// store's address resolution will re-enqueue it) or keep retrying it every
// cycle (issueBlocked), exactly as the reference scan would.
type issueOutcome uint8

const (
	issueOK        issueOutcome = iota // entry began executing
	issueOperands                      // an operand's producer has not finished
	issueStoreWait                     // a load parked on an older store with an unresolved address
	issueBlocked                       // structural retry: blocked memory, CSR serialization
)

// tryIssue attempts to begin execution of e on thread t. It reports failure
// when operands are not ready, an older store's address is unresolved, a
// structural condition blocks, or the memory system asked for a retry
// (shadow Block policy).
func (c *CPU) tryIssue(t *thread, idx int, e *entry) issueOutcome {
	v1, ok1 := t.resolveSrc(e.reg1, e.src1)
	v2, ok2 := t.resolveSrc(e.reg2, e.src2)
	if !ok1 || !ok2 {
		return issueOperands
	}
	op := e.in.Op
	lat := uint64(isa.Latency(op))

	switch isa.ClassOf(op) {
	case isa.ClassNop, isa.ClassFence, isa.ClassHalt:
		// Nothing to compute.
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassFP:
		e.val = evalALU(op, v1, v2, e.in.Imm)
	case isa.ClassCSR:
		// rdcycle is serializing: it issues only from the ROB head, after
		// everything older has committed, so it observes a stable time.
		if idx != t.head {
			return issueBlocked
		}
		e.val = int64(c.cycle)
	case isa.ClassLoad:
		return c.issueLoad(t, idx, e, v1)
	case isa.ClassStore:
		return c.issueStore(t, idx, e, v1, v2)
	case isa.ClassBranch:
		e.actualTaken = evalBranch(op, v1, v2)
		if e.actualTaken {
			e.actualTarget = e.in.Target
		} else {
			e.actualTarget = e.pc + 1
		}
	case isa.ClassJump:
		e.actualTaken = true
		e.actualTarget = e.in.Target
		if op == isa.OpCall {
			e.val = int64(e.pc + 1)
		}
	case isa.ClassJumpInd:
		e.actualTaken = true
		e.actualTarget = int(v1 + e.in.Imm)
		if op == isa.OpCalli {
			e.val = int64(e.pc + 1)
		}
	case isa.ClassRet:
		e.actualTaken = true
		e.actualTarget = int(v1)
	case isa.ClassFlush:
		// Effective address computed now; the flush itself is performed at
		// commit so that squashed flushes leave no trace.
		e.va = uint64(v1 + e.in.Imm)
	}

	e.state = stExec
	e.completeAt = c.cycle + lat
	t.iqCount--
	c.schedIssued(t, idx, e)
	if c.tracing() {
		c.tracef("issue   %s", traceEntry(e))
	}
	c.wfbMoveIfSafe(t, e)
	return issueOK
}

// issueLoad performs the memory access for a load: store-to-load forwarding
// against older stores, else a full dTLB + D-cache access.
func (c *CPU) issueLoad(t *thread, idx int, e *entry, v1 int64) issueOutcome {
	va := uint64(v1 + e.in.Imm)
	e.va = va

	// Walk older stores, youngest-first, over the store bitmap. An older
	// store with an unresolved address blocks the load (no
	// memory-dependence speculation): the load parks in that store's waiter
	// row, free because a store has no destination register.
	if s, blk := c.olderStoreScan(t, idx, va); blk >= 0 {
		setBit(t.waiters[blk*t.schedWords:], idx)
		return issueStoreWait
	} else if s != nil {
		if s.fault != mem.FaultNone {
			// Forwarding from a faulting store: the load will be
			// squashed by the store's trap anyway; treat as stall.
			return issueBlocked
		}
		e.val = s.sdata
		e.state = stExec
		e.completeAt = c.cycle + uint64(c.cfg.StoreForwardLatency)
		t.iqCount--
		c.schedIssued(t, idx, e)
		c.St.StoreForwards++
		return issueOK
	}

	res := t.ms.LoadAccess(va, e.seq, e.mask)
	if res.blocked {
		return issueBlocked
	}
	c.St.DReads++
	switch res.src {
	case srcShadow:
		c.St.DReadShadowHits++
	case srcL1:
		c.St.DReadL1Hits++
	default:
		c.St.DReadMisses++
	}
	e.val = res.value
	e.pa = res.pa
	e.fault = res.fault
	e.sh.take(&res.sh) // joins the fetch-attributed PTE handles
	e.state = stExec
	e.completeAt = c.cycle + uint64(isa.Latency(e.in.Op)) + uint64(res.latency)
	t.iqCount--
	c.schedIssued(t, idx, e)
	if c.tracing() {
		c.tracef("issue   %s va=%#x lat=%d fault=%v", traceEntry(e), va, res.latency, res.fault)
	}
	c.wfbMoveIfSafe(t, e)
	return issueOK
}

// issueStore resolves a store's address and captures its data. The write
// itself happens at commit (TSO).
func (c *CPU) issueStore(t *thread, idx int, e *entry, v1, v2 int64) issueOutcome {
	va := uint64(v1 + e.in.Imm)
	var res accessResult
	t.ms.resolveData(va, e.seq, e.mask, &res)
	if res.blocked {
		return issueBlocked
	}
	e.va = va
	e.pa = res.pa
	e.fault = res.fault
	e.sdata = v2
	e.addrReady = true
	c.wakeWaiters(t, idx) // loads parked on this store's address
	e.sh.take(&res.sh)
	e.state = stExec
	e.completeAt = c.cycle + uint64(isa.Latency(e.in.Op))
	t.iqCount--
	c.schedIssued(t, idx, e)
	c.wfbMoveIfSafe(t, e)
	return issueOK
}

// writeback finishes e: marks it done, wakes its register dependents, and
// resolves control flow. It reports whether a squash occurred.
func (c *CPU) writeback(t *thread, idx int, e *entry) bool {
	c.schedRetire(t, idx)
	e.state = stDone
	c.wakeWaiters(t, idx)
	if isa.IsBranchLike(e.in.Op) {
		if squashed := c.resolveBranch(t, idx, e); squashed {
			return true
		}
	}
	return false
}

// wfbMoveIfSafe applies the wait-for-branch rule: an instruction whose
// older control-flow predictions have all resolved is no longer considered
// speculative, so its shadow state moves to the committed structures
// immediately — even if the instruction itself may later fault. This is
// exactly why WFB does not stop Meltdown (paper Table III): the faulting
// load's side effects have no branch to wait for.
func (c *CPU) wfbMoveIfSafe(t *thread, e *entry) {
	if c.cfg.Mode == ModeWFB && e.mask == 0 {
		e.sh.commit(t.ms)
	}
}

// resolveBranch checks the prediction for a resolved control transfer,
// trains the predictor, clears the branch tag, and squashes on mispredict.
// It reports whether a squash occurred.
func (c *CPU) resolveBranch(t *thread, idx int, e *entry) bool {
	op := e.in.Op
	correct := true
	if isa.IsPredicted(op) {
		correct = e.predTaken == e.actualTaken && (!e.actualTaken || e.predTarget == e.actualTarget)
		// For not-taken conditional branches the fall-through target always
		// matches; for taken paths compare targets.
		if isa.ClassOf(op) == isa.ClassBranch && e.predTaken == e.actualTaken && !e.actualTaken {
			correct = true
		}
		switch isa.ClassOf(op) {
		case isa.ClassBranch:
			t.bp.UpdateCond(e.pc, e.histSnap, e.actualTaken, correct)
		case isa.ClassJumpInd:
			t.bp.UpdateIndirect(e.pc, e.actualTarget, correct)
		case isa.ClassRet:
			t.bp.UpdateReturn(correct)
		}
	}

	if correct {
		t.releaseRASSnap(e)
		c.clearTag(t, idx, e)
		return false
	}

	// Mispredict: squash everything younger, restore predictor state, and
	// redirect the front end to the actual target.
	if c.tracing() {
		c.tracef("MISPRED %s predicted=%d actual=%d", traceEntry(e), e.predTarget, e.actualTarget)
	}
	t.st.Mispredicts++
	if in := c.intro; in != nil {
		in.MispredictSquashes++
		in.SquashedByMispredict += uint64(t.count - (t.ordinal(idx) + 1))
	}
	c.squashYounger(t, idx)
	t.bp.RestoreHistory(e.histSnap)
	t.bp.RestoreRAS(e.rasTop, e.rasSnap)
	t.releaseRASSnap(e)
	switch isa.ClassOf(op) {
	case isa.ClassBranch:
		t.bp.SpeculateHistory(e.actualTaken)
	case isa.ClassJumpInd:
		if op == isa.OpCalli {
			t.bp.PushReturn(e.pc + 1)
		}
	case isa.ClassRet:
		// Re-pop the (restored) RAS to consume the return.
		t.bp.PredictReturn()
	}
	c.clearTag(t, idx, e)
	c.flushFetch(t, e.actualTarget)
	return true
}

// clearTag releases the tag of branch e (in slot idx) and clears the bit from
// all younger entries' masks, applying the WFB motion rule to entries that
// become safe. Only entries dispatched after the branch can carry its bit.
func (c *CPU) clearTag(t *thread, idx int, e *entry) {
	bit := e.tagBit
	if bit == 0 {
		return
	}
	e.tagBit = 0
	t.activeTags &^= bit
	for i := t.ordinal(idx) + 1; i < t.count; i++ {
		ent := &t.rob[t.slot(i)]
		if ent.mask&bit == 0 {
			continue
		}
		ent.mask &^= bit
		// WFB: entries freed of their last branch dependency become safe;
		// whatever shadow state they have accumulated moves now (entries
		// still waiting to issue will move their future fills at issue).
		c.wfbMoveIfSafe(t, ent)
	}
}

// squashYounger removes every ROB entry of thread t younger than the one at
// idx, releasing shadow state as squashed and returning queue capacity.
func (c *CPU) squashYounger(t *thread, idx int) {
	keep := t.ordinal(idx) + 1
	for i := t.count - 1; i >= keep; i-- {
		c.squashEntry(t, t.slot(i))
	}
	t.count = keep
	t.rebuildRename()
}

// squashAll removes every ROB entry of thread t (trap flush).
func (c *CPU) squashAll(t *thread) {
	for i := t.count - 1; i >= 0; i-- {
		c.squashEntry(t, t.slot(i))
	}
	t.count = 0
	t.rebuildRename()
}

// squashEntry annuls the entry in t's ROB slot idx: shadow state is
// released in place (the SafeSpec "annul update to the shadow state" arrow
// in Figure 3) and the scheduler drops any queued work for it.
func (c *CPU) squashEntry(t *thread, idx int) {
	e := &t.rob[idx]
	c.schedSquash(t, idx)
	t.st.Squashed++
	if e.state == stWait {
		t.iqCount--
	}
	if e.isLoad {
		t.ldqCount--
	}
	if e.isStore {
		t.stqCount--
	}
	if e.tagBit != 0 {
		t.activeTags &^= e.tagBit
	}
	if e.in.Op == isa.OpFence {
		t.fenceActive--
	}
	t.releaseRASSnap(e)
	e.sh.annul(t.ms)
}

// evalALU computes the result of an ALU-class operation.
func evalALU(op isa.Op, v1, v2, imm int64) int64 {
	switch op {
	case isa.OpAdd:
		return v1 + v2
	case isa.OpSub:
		return v1 - v2
	case isa.OpMul:
		return v1 * v2
	case isa.OpDiv:
		if v2 == 0 {
			return 0
		}
		return v1 / v2
	case isa.OpRem:
		if v2 == 0 {
			return v1
		}
		return v1 % v2
	case isa.OpAnd:
		return v1 & v2
	case isa.OpOr:
		return v1 | v2
	case isa.OpXor:
		return v1 ^ v2
	case isa.OpShl:
		return v1 << uint(v2&63)
	case isa.OpShr:
		return int64(uint64(v1) >> uint(v2&63))
	case isa.OpSra:
		return v1 >> uint(v2&63)
	case isa.OpSlt:
		if v1 < v2 {
			return 1
		}
		return 0
	case isa.OpAddi:
		return v1 + imm
	case isa.OpAndi:
		return v1 & imm
	case isa.OpOri:
		return v1 | imm
	case isa.OpXori:
		return v1 ^ imm
	case isa.OpShli:
		return v1 << uint(imm&63)
	case isa.OpShri:
		return int64(uint64(v1) >> uint(imm&63))
	case isa.OpSlti:
		if v1 < imm {
			return 1
		}
		return 0
	case isa.OpMovi:
		return imm
	case isa.OpFAdd:
		return v1 + v2
	case isa.OpFMul:
		return v1 * v2
	case isa.OpFDiv:
		if v2 == 0 {
			return 0
		}
		return v1 / v2
	default:
		return 0
	}
}

// evalBranch computes the direction of a conditional branch.
func evalBranch(op isa.Op, v1, v2 int64) bool {
	switch op {
	case isa.OpBeq:
		return v1 == v2
	case isa.OpBne:
		return v1 != v2
	case isa.OpBlt:
		return v1 < v2
	case isa.OpBge:
		return v1 >= v2
	case isa.OpBltu:
		return uint64(v1) < uint64(v2)
	case isa.OpBgeu:
		return uint64(v1) >= uint64(v2)
	default:
		return false
	}
}
