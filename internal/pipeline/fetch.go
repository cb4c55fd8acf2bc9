package pipeline

import (
	"safespec/internal/cache"
	"safespec/internal/isa"
	"safespec/internal/mem"
)

// fetch runs the front end of thread t for one cycle: up to FetchWidth
// instructions are pulled from the instruction stream along the predicted
// path, charging I-cache/iTLB time per line crossed. A taken (predicted or
// static) control transfer ends the fetch group. Under SMT one thread owns
// the entire fetch stage each cycle (round-robin in Step).
func (c *CPU) fetch(t *thread) {
	if !t.fetchValid || c.cycle < t.fetchStallUntil {
		return
	}
	// Bounded fetch buffer (two dispatch groups).
	if t.fbLen >= 2*c.cfg.DispatchWidth {
		return
	}
	for fetched := 0; fetched < c.cfg.FetchWidth; fetched++ {
		if t.fetchPC < 0 || t.fetchPC >= len(c.prog.Code) {
			// Ran off the code (wrong-path or program end): wait for a
			// redirect; if none ever comes the pipeline drains and halts.
			t.fetchValid = false
			return
		}
		lineVA := isa.PCByte(t.fetchPC) &^ uint64(cache.LineSize-1)
		if lineVA == t.lastFetchLine {
			// Same-line sequential fetch: no cache port needed, but for
			// the Figure 15 accounting attribute the reuse to wherever the
			// line currently resides — the shadow structure while the line
			// is still speculative, the committed L1I after it moves.
			c.St.IFetches++
			inShadow, inL1 := t.ms.ClassifyILine(t.lastFetchPALine)
			switch {
			case inShadow:
				c.St.IFetchShadowHits++
			case inL1:
				c.St.IFetchL1Hits++
			default:
				// Line was flushed or displaced mid-group; treat as a hit
				// on the committed side (no re-fetch is modeled).
				c.St.IFetchL1Hits++
			}
		}
		if lineVA != t.lastFetchLine {
			c.active = true
			if c.tracing() {
				c.tracef("ifetch  pc=%d line=%#x", t.fetchPC, lineVA)
			}
			res := t.ms.FetchAccess(lineVA, t.seqCtr, t.activeTags)
			if res.blocked {
				// Shadow structure full under the Block policy: retry.
				t.fetchStallUntil = c.cycle + 1
				return
			}
			c.St.IFetches++
			switch res.src {
			case srcShadow:
				c.St.IFetchShadowHits++
			case srcL1:
				c.St.IFetchL1Hits++
			default:
				c.St.IFetchMisses++
			}
			t.lastFetchLine = lineVA
			t.lastFetchPALine = res.pa
			t.pending.annul(t.ms)
			t.pending.take(&res.sh)
			if res.latency > 0 {
				t.fetchStallUntil = c.cycle + uint64(res.latency)
				return
			}
		}
		in := c.prog.Code[t.fetchPC]
		// Build the record directly in the ring slot; fbCommit publishes it.
		// No abort path runs between here and the commit. The slot is not
		// zero-filled (see fbPop), so every field is set here or below.
		rec := t.fbNext()
		rec.pc = t.fetchPC
		rec.in = in
		rec.predicted, rec.predTaken, rec.predTarget = false, false, 0
		rec.histSnap, rec.rasTop, rec.rasSnap = 0, 0, nil
		// The first instruction fetched after a line fill owns that line's
		// shadow entries.
		rec.sh.take(&t.pending)

		redirected := false
		switch isa.ClassOf(in.Op) {
		case isa.ClassBranch:
			rec.predicted = true
			rec.histSnap = t.bp.HistorySnapshot()
			rec.rasSnap = c.getRASBuf(t)
			rec.rasTop = t.bp.SnapshotRASInto(rec.rasSnap)
			pred := t.bp.PredictCond(rec.pc, in.Target)
			rec.predTaken = pred.Taken
			rec.predTarget = pred.Target
			t.bp.SpeculateHistory(pred.Taken)
			if pred.Taken {
				t.fetchPC = pred.Target
				redirected = true
			} else {
				t.fetchPC++
			}
		case isa.ClassJump:
			// Direct jump/call: target statically known, never mispredicts.
			if in.Op == isa.OpCall {
				t.bp.PushReturn(rec.pc + 1)
			}
			rec.predTaken = true
			rec.predTarget = in.Target
			t.fetchPC = in.Target
			redirected = true
		case isa.ClassJumpInd:
			rec.predicted = true
			rec.histSnap = t.bp.HistorySnapshot()
			rec.rasSnap = c.getRASBuf(t)
			rec.rasTop = t.bp.SnapshotRASInto(rec.rasSnap)
			pred := t.bp.PredictIndirect(rec.pc)
			rec.predTaken = true
			if pred.HasTarget {
				rec.predTarget = pred.Target
			} else {
				// No BTB entry: fall through and rely on the execute-time
				// redirect (a guaranteed "mispredict").
				rec.predTarget = rec.pc + 1
			}
			if in.Op == isa.OpCalli {
				t.bp.PushReturn(rec.pc + 1)
			}
			t.fetchPC = rec.predTarget
			redirected = true
		case isa.ClassRet:
			rec.predicted = true
			rec.histSnap = t.bp.HistorySnapshot()
			rec.rasSnap = c.getRASBuf(t)
			rec.rasTop = t.bp.SnapshotRASInto(rec.rasSnap)
			pred := t.bp.PredictReturn()
			rec.predTaken = true
			if pred.HasTarget {
				rec.predTarget = pred.Target
			} else {
				rec.predTarget = rec.pc + 1
			}
			t.fetchPC = rec.predTarget
			redirected = true
		case isa.ClassHalt:
			t.fetchValid = false
			t.fbCommit()
			c.active = true
			return
		default:
			t.fetchPC++
		}

		t.fbCommit()
		c.active = true
		if redirected {
			// A taken transfer ends the fetch group and invalidates the
			// straight-line same-line optimization.
			t.lastFetchLine = ^uint64(0)
			return
		}
	}
}

// dispatch moves instructions from thread t's fetch buffer into its ROB
// partition, renaming their operands and allocating its IQ/LDQ/STQ shares
// and branch tags. budget is the remaining DispatchWidth shared across
// threads this cycle; one unit is consumed per dispatched instruction.
func (c *CPU) dispatch(t *thread, budget *int) {
	for *budget > 0 && t.fbLen > 0 {
		if t.fenceActive > 0 {
			return
		}
		if t.count == len(t.rob) || t.iqCount == t.iqMax {
			return
		}
		rec := t.fbFront()
		class := isa.ClassOf(rec.in.Op)
		isLoad := class == isa.ClassLoad
		isStore := class == isa.ClassStore
		if isLoad && t.ldqCount == t.ldqMax {
			return
		}
		if isStore && t.stqCount == t.stqMax {
			return
		}
		var tagBit uint64
		if rec.predicted {
			tagBit = c.freeTag(t)
			if tagBit == 0 {
				return // out of branch checkpoints
			}
		}

		idx := t.tail()
		t.count++
		t.seqCtr++
		e := &t.rob[idx]
		// Field-by-field reset instead of `*e = entry{...}`: the composite
		// literal zero-fills the whole slot — dominated by the 96-byte
		// inline handle array — on every dispatch. sh.reset leaves stale
		// handles unreachable behind nD = 0; every other field is
		// (re)assigned here or below.
		e.seq = t.seqCtr
		e.pc = rec.pc
		e.in = rec.in
		e.state = stWait
		e.completeAt = 0
		e.val = 0
		e.mask = t.activeTags
		e.tagBit = tagBit
		e.predTaken = rec.predTaken
		e.predTarget = rec.predTarget
		e.actualTaken = false
		e.actualTarget = 0
		e.histSnap = rec.histSnap
		e.rasTop = rec.rasTop
		e.rasSnap = rec.rasSnap
		e.isLoad = isLoad
		e.isStore = isStore
		e.addrReady = false
		e.va, e.pa = 0, 0
		e.sdata = 0
		e.fault = mem.FaultNone
		e.sh.reset()
		e.sh.take(&rec.sh)
		if tagBit != 0 {
			t.activeTags |= tagBit
		}

		// Operand renaming.
		e.reg1, e.reg2 = srcRegsOf(rec.in)
		e.src1 = t.renameLookup(e.reg1)
		e.src2 = t.renameLookup(e.reg2)
		if rec.in.HasDest() {
			t.renm[rec.in.Rd] = renameRef{has: true, idx: idx, seq: e.seq}
		}
		c.schedDispatch(t, idx, e)

		t.iqCount++
		if isLoad {
			t.ldqCount++
		}
		if isStore {
			t.stqCount++
		}
		if rec.in.Op == isa.OpFence {
			t.fenceActive++
		}
		t.st.Dispatched++
		c.active = true
		t.fbPop()
		*budget--
	}
}

// srcRegsOf returns the (up to two) source registers of in, Zero if unused.
func srcRegsOf(in isa.Instr) (r1, r2 isa.Reg) {
	switch isa.ClassOf(in.Op) {
	case isa.ClassALU:
		switch in.Op {
		case isa.OpMovi:
			return isa.Zero, isa.Zero
		case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpShli, isa.OpShri, isa.OpSlti:
			return in.Rs1, isa.Zero
		default:
			return in.Rs1, in.Rs2
		}
	case isa.ClassMul, isa.ClassDiv, isa.ClassFP:
		return in.Rs1, in.Rs2
	case isa.ClassLoad:
		return in.Rs1, isa.Zero
	case isa.ClassStore:
		return in.Rs1, in.Rs2
	case isa.ClassBranch:
		return in.Rs1, in.Rs2
	case isa.ClassJumpInd:
		return in.Rs1, isa.Zero
	case isa.ClassRet:
		return isa.RA, isa.Zero
	case isa.ClassFlush:
		return in.Rs1, isa.Zero
	}
	return isa.Zero, isa.Zero
}

// freeTag allocates an unused branch-tag bit from t's share, or 0 if none
// remain.
func (c *CPU) freeTag(t *thread) uint64 {
	limit := t.tagsMax
	for b := 0; b < limit && b < 64; b++ {
		bit := uint64(1) << uint(b)
		if t.activeTags&bit == 0 {
			return bit
		}
	}
	return 0
}

// flushFetch clears thread t's fetch buffer and any pending shadow handles,
// then redirects its front end to pc.
func (c *CPU) flushFetch(t *thread, pc int) {
	for i := 0; i < t.fbLen; i++ {
		rec := &t.fetchBuf[(t.fbHead+i)%len(t.fetchBuf)]
		rec.sh.annul(t.ms)
		t.putRASBuf(rec.rasSnap)
		*rec = fetchRec{}
	}
	t.fbHead, t.fbLen = 0, 0
	t.pending.annul(t.ms)
	t.fetchPC = pc
	t.fetchValid = pc >= 0 && pc < len(c.prog.Code)
	t.fetchStallUntil = c.cycle + uint64(c.cfg.RedirectPenalty)
	t.lastFetchLine = ^uint64(0)
	if c.tracing() {
		c.tracef("redirect fetch -> pc=%d valid=%v", pc, t.fetchValid)
	}
}
