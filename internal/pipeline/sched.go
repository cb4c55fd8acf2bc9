package pipeline

import "math/bits"

// This file is the event-driven core scheduler. The original implementation
// (kept as executeScan/the fastForward re-scan, selectable through a test
// hook) rediscovers work by walking every in-flight ROB entry each cycle;
// with a 224-entry window that walk dominates simulation time even though
// only a handful of entries change state per cycle. The event-driven
// scheduler keeps three kinds of derived state — per hardware thread, over
// that thread's ROB partition — so each cycle touches only the entries that
// act:
//
//   - readyMask: a slot bitmap of stWait entries worth attempting to issue —
//     entries whose operands were ready at dispatch, plus entries woken when
//     a producer wrote back or a blocking store resolved its address, plus
//     entries that failed for a structural reason (blocked memory, CSR
//     serialization) and must retry. Iterating set bits from the ROB head
//     preserves the scan's oldest-first issue priority exactly.
//   - waiters: per-producer slot bitmaps. A dispatched entry whose operand
//     names an unfinished producer registers in that producer's row; the
//     producer's writeback ORs the row into readyMask. A load blocked by an
//     older store with an unresolved address parks in the store's row (free:
//     a store has no destination register) and the store's issue wakes it.
//     Spurious wakeups (stale bits surviving a squash of the waiter) are
//     harmless: the attempt fails without side effects and the bit is
//     dropped again.
//   - a completion timing wheel keyed on completeAt: issuing schedules the
//     entry in bucket completeAt mod span, where span is a power of two
//     sized at Reset to exceed the largest latency the denormalized
//     cache/TLB/memory configuration can compose. Because every scheduled
//     entry completes within span cycles and fastForward never skips a
//     completion, each cycle drains only its own bucket, and peeking the
//     next event is a circular scan for the nearest occupied bucket.
//     fastForward becomes that peek instead of an O(ROB) re-scan.
//
// The bitmaps are indexed by ROB slot, not ordinal, so squash and commit
// clear state in O(1) per entry and iteration order falls out of starting
// at the head. All structures are preallocated at Reset: the scheduler adds
// no steady-state allocations (TestZeroSteadyStateAllocsPerCycle covers
// it). Both schedulers share tryIssue/writeback/squash bookkeeping, so the
// reference scan can run against identical state for differential testing.

const (
	wheelNone     = -1 // entry is not scheduled in the wheel
	wheelOverflow = -2 // entry parked in the overflow list (completeAt beyond the horizon)
)

// schedReset (re)builds thread t's scheduler state for the current config.
// Called from Reset after the thread's ROB geometry is final. touched is
// the number of leading ROB slots the last run dispatched into: per-slot
// state beyond them is still as New left it, so only those are cleared.
func (c *CPU) schedReset(t *thread, touched int) {
	words := (len(t.rob) + 63) >> 6
	if len(t.readyMask) != words || len(t.waiters) != len(t.rob)*words {
		t.schedWords = words
		t.readyMask = make([]uint64, words)
		t.compMask = make([]uint64, words)
		t.storeMask = make([]uint64, words)
		t.waiters = make([]uint64, len(t.rob)*words)
	} else {
		clear(t.readyMask)
		clear(t.compMask)
		clear(t.storeMask)
		clear(t.waiters[:touched*words])
	}

	span := wheelSpan(c.cfg)
	if len(t.bucketHead) != span {
		t.bucketHead = make([]int32, span)
		t.bucketOcc = make([]uint64, span>>6)
		for i := range t.bucketHead {
			t.bucketHead[i] = wheelNone
		}
	} else {
		// A bucket has a head exactly when its occupancy bit is set.
		for w, occ := range t.bucketOcc {
			for ; occ != 0; occ &= occ - 1 {
				t.bucketHead[w<<6+bits.TrailingZeros64(occ)] = wheelNone
			}
		}
		clear(t.bucketOcc)
	}
	if len(t.wheelNext) != len(t.rob) {
		t.wheelNext = make([]int32, len(t.rob))
		t.wheelPrev = make([]int32, len(t.rob))
		t.wheelBucket = make([]int32, len(t.rob))
		t.overflow = make([]int32, 0, len(t.rob))
		touched = len(t.rob)
	}
	clear(t.wheelNext[:touched])
	clear(t.wheelPrev[:touched])
	for i := range t.wheelBucket[:touched] {
		t.wheelBucket[i] = wheelNone
	}
	t.overflow = t.overflow[:0]
	t.wheelCount = 0
}

// wheelSpan sizes the completion wheel: a power of two strictly above the
// largest latency one issue can compose (op latency, walker overhead, two
// PTE reads and the data access each missing to memory). Anything larger —
// only possible under exotic configurations — goes to the overflow list,
// which stays correct at linear cost.
func wheelSpan(cfg Config) int {
	h := cfg.Hier
	worstAccess := h.L1D.HitLatency + h.L2.HitLatency + h.L3.HitLatency + h.MemLatency
	worst := 64 + cfg.WalkerLatency + cfg.StoreForwardLatency + 3*worstAccess
	span := 64
	for span <= 2*worst {
		span <<= 1
	}
	return span
}

func setBit(mask []uint64, idx int)   { mask[idx>>6] |= 1 << uint(idx&63) }
func clearBit(mask []uint64, idx int) { mask[idx>>6] &^= 1 << uint(idx&63) }

// schedDispatch wires a freshly dispatched entry into thread t's scheduler:
// stale bits from the slot's previous occupant are dropped, the entry
// registers with every unfinished producer, and an entry with no unfinished
// producer enters the ready queue immediately.
func (c *CPU) schedDispatch(t *thread, idx int, e *entry) {
	// The slot's waiter row belongs to the previous occupant (whose waiters,
	// being younger, died with it); clear it before this entry can complete.
	row := idx * t.schedWords
	for w := 0; w < t.schedWords; w++ {
		t.waiters[row+w] = 0
	}
	clearBit(t.readyMask, idx)
	clearBit(t.compMask, idx)
	if e.isStore {
		setBit(t.storeMask, idx)
	}

	ready := true
	if e.src1.has && t.rob[e.src1.idx].state != stDone {
		setBit(t.waiters[e.src1.idx*t.schedWords:], idx)
		ready = false
	}
	if e.src2.has && t.rob[e.src2.idx].state != stDone {
		setBit(t.waiters[e.src2.idx*t.schedWords:], idx)
		ready = false
	}
	if ready {
		setBit(t.readyMask, idx)
	}
}

// wakeWaiters moves every entry registered on producer idx into thread t's
// ready queue. Stale registrations (waiters squashed since they registered)
// wake slots that are dead or reused; both cases are filtered at attempt
// time.
func (c *CPU) wakeWaiters(t *thread, idx int) {
	row := idx * t.schedWords
	for w := 0; w < t.schedWords; w++ {
		if bits := t.waiters[row+w]; bits != 0 {
			t.readyMask[w] |= bits
			t.waiters[row+w] = 0
		}
	}
}

// schedIssued records a stWait -> stExec transition: the entry leaves the
// ready queue and is scheduled for completion at e.completeAt.
func (c *CPU) schedIssued(t *thread, idx int, e *entry) {
	clearBit(t.readyMask, idx)
	if e.completeAt <= c.cycle {
		// Degenerate zero-latency issue: the scan discovers it next cycle,
		// so park it as already due rather than in a lapped bucket.
		setBit(t.compMask, idx)
		return
	}
	c.wheelAdd(t, idx, e.completeAt)
}

// schedRetire drops an entry from all scheduler structures when it writes
// back (the wheel link is already gone if the wheel drain surfaced it).
func (c *CPU) schedRetire(t *thread, idx int) {
	c.wheelRemove(t, idx)
	clearBit(t.readyMask, idx)
	clearBit(t.compMask, idx)
}

// schedSquash drops an annulled entry from all scheduler structures.
func (c *CPU) schedSquash(t *thread, idx int) {
	c.wheelRemove(t, idx)
	clearBit(t.readyMask, idx)
	clearBit(t.compMask, idx)
	clearBit(t.storeMask, idx)
}

// wheelAdd schedules thread t's slot idx to complete at cycle `at`
// (> c.cycle).
func (c *CPU) wheelAdd(t *thread, idx int, at uint64) {
	span := uint64(len(t.bucketHead))
	if at-c.cycle >= span {
		t.wheelBucket[idx] = wheelOverflow
		t.overflow = append(t.overflow, int32(idx)) // within preallocated cap
		return
	}
	b := int(at & (span - 1))
	head := t.bucketHead[b]
	t.wheelNext[idx] = head
	t.wheelPrev[idx] = wheelNone
	if head != wheelNone {
		t.wheelPrev[head] = int32(idx)
	}
	t.bucketHead[b] = int32(idx)
	t.wheelBucket[idx] = int32(b)
	setBit(t.bucketOcc, b)
	t.wheelCount++
}

// wheelRemove unschedules slot idx if it is scheduled (squash, or a
// writeback under the reference scheduler, which never drains buckets).
func (c *CPU) wheelRemove(t *thread, idx int) {
	b := t.wheelBucket[idx]
	switch b {
	case wheelNone:
		return
	case wheelOverflow:
		for i, s := range t.overflow {
			if s == int32(idx) {
				t.overflow[i] = t.overflow[len(t.overflow)-1]
				t.overflow = t.overflow[:len(t.overflow)-1]
				break
			}
		}
		t.wheelBucket[idx] = wheelNone
		return
	}
	next, prev := t.wheelNext[idx], t.wheelPrev[idx]
	if next != wheelNone {
		t.wheelPrev[next] = prev
	}
	if prev != wheelNone {
		t.wheelNext[prev] = next
	} else {
		t.bucketHead[b] = next
		if next == wheelNone {
			clearBit(t.bucketOcc, int(b))
		}
	}
	t.wheelBucket[idx] = wheelNone
	t.wheelCount--
}

// drainWheel moves every scheduled entry due this cycle into compMask.
// fastForward never skips a completion (skipTo stops one cycle before the
// earliest completeAt), so every earlier bucket was drained on its own cycle
// and only this cycle's bucket can be due.
func (c *CPU) drainWheel(t *thread) {
	if b := int(c.cycle & uint64(len(t.bucketHead)-1)); t.bucketHead[b] != wheelNone {
		c.drainBucket(t, b)
	}
	for i := 0; i < len(t.overflow); {
		idx := int(t.overflow[i])
		if t.rob[idx].completeAt <= c.cycle {
			setBit(t.compMask, idx)
			t.wheelBucket[idx] = wheelNone
			t.overflow[i] = t.overflow[len(t.overflow)-1]
			t.overflow = t.overflow[:len(t.overflow)-1]
			continue
		}
		i++
	}
}

// drainBucket empties thread t's bucket b into compMask.
func (c *CPU) drainBucket(t *thread, b int) {
	for idx := t.bucketHead[b]; idx != wheelNone; {
		next := t.wheelNext[idx]
		setBit(t.compMask, int(idx))
		t.wheelBucket[idx] = wheelNone
		t.wheelCount--
		idx = next
	}
	t.bucketHead[b] = wheelNone
	clearBit(t.bucketOcc, b)
}

// wheelPeek returns thread t's earliest scheduled completion strictly after
// the current cycle. Every due entry was drained before an idle cycle can
// reach fastForward and every other one completes within one revolution, so
// the first occupied bucket after the current one, scanning circularly,
// holds the earliest completion.
func (c *CPU) wheelPeek(t *thread) (next uint64, ok bool) {
	if t.wheelCount > 0 {
		s := int((c.cycle + 1) & uint64(len(t.bucketHead)-1))
		w := s >> 6
		occ := t.bucketOcc[w] >> uint(s&63) << uint(s&63)
		for occ == 0 { // terminates: some bucket is occupied
			w = (w + 1) % len(t.bucketOcc)
			occ = t.bucketOcc[w]
		}
		next, ok = t.rob[t.bucketHead[w<<6+bits.TrailingZeros64(occ)]].completeAt, true
	}
	for _, s := range t.overflow {
		if at := t.rob[s].completeAt; !ok || at < next {
			next, ok = at, true
		}
	}
	return next, ok
}

// executeEvent is the event-driven issue/writeback stage for thread t: one
// pass over the set bits of readyMask|compMask in oldest-first ROB order,
// exactly the entries the reference scan would have acted on. Bits set
// mid-pass by a writeback's wakeup belong to younger entries and are
// reached by the same pass, preserving same-cycle issue of woken
// dependents.
func (c *CPU) executeEvent(t *thread, issued, loads, stores *int) {
	c.drainWheel(t)
	n := len(t.rob)
	if t.head+t.count <= n {
		c.executeRange(t, t.head, t.head+t.count, issued, loads, stores)
		return
	}
	if c.executeRange(t, t.head, n, issued, loads, stores) {
		return
	}
	c.executeRange(t, 0, t.head+t.count-n, issued, loads, stores)
}

// executeRange processes scheduler bits for thread t's slots in [lo, hi),
// oldest first. It reports whether a squash ended the cycle.
func (c *CPU) executeRange(t *thread, lo, hi int, issued, loads, stores *int) bool {
	for cur := lo; cur < hi; {
		w := cur >> 6
		rem := (t.readyMask[w] | t.compMask[w]) >> uint(cur&63)
		if rem == 0 {
			cur = (w + 1) << 6
			continue
		}
		cur += bits.TrailingZeros64(rem)
		if cur >= hi {
			return false
		}
		idx := cur
		cur++

		// Stale bits (a squashed waiter's registration waking a dead or
		// reused slot) are filtered here, exactly like entries the scan
		// would skip or fail without side effects.
		ord := idx - t.head
		if ord < 0 {
			ord += len(t.rob)
		}
		if ord >= t.count {
			clearBit(t.readyMask, idx)
			clearBit(t.compMask, idx)
			continue
		}
		e := &t.rob[idx]
		switch e.state {
		case stExec:
			if e.completeAt > c.cycle {
				clearBit(t.readyMask, idx) // stale wakeup of an issued entry
				continue
			}
			c.active = true
			if squashed := c.writeback(t, idx, e); squashed {
				return true // younger entries are gone; resume next cycle
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
			switch c.tryIssue(t, idx, e) {
			case issueOperands, issueStoreWait:
				// Not ready after all: drop the bit; the registration with
				// the unfinished producer or the blocking store re-wakes it.
				clearBit(t.readyMask, idx)
			case issueBlocked:
				// Structural retry (blocked memory, CSR serialization):
				// keep the bit, as the scan keeps re-attempting every cycle.
			case issueOK:
				c.active = true
				*issued++
				if e.isLoad {
					*loads++
				}
				if e.isStore {
					*stores++
				}
			}
		default:
			clearBit(t.readyMask, idx) // stale wakeup of a finished entry
		}
	}
	return false
}

// olderStoreScan walks thread t's in-flight stores older than the load at
// idx, youngest first, via the store bitmap — the event-driven replacement
// for scanning every older ROB entry. found is the youngest older store
// whose resolved address matches the load's doubleword; blocker is the slot
// of an older store with an unresolved address encountered first (no
// memory-dependence speculation), or -1.
func (c *CPU) olderStoreScan(t *thread, idx int, va uint64) (found *entry, blocker int) {
	n := len(t.rob)
	if idx >= t.head {
		return c.storeScanRange(t, t.head, idx, va)
	}
	if e, blk := c.storeScanRange(t, 0, idx, va); e != nil || blk >= 0 {
		return e, blk
	}
	return c.storeScanRange(t, t.head, n, va)
}

// storeScanRange scans thread t's store slots in [lo, hi) youngest-first.
func (c *CPU) storeScanRange(t *thread, lo, hi int, va uint64) (found *entry, blocker int) {
	for cur := hi; cur > lo; {
		w := (cur - 1) >> 6
		rem := t.storeMask[w] << uint(63-(cur-1)&63) // bits strictly below cur, MSB-aligned
		if rem == 0 {
			cur = w << 6
			continue
		}
		cur -= 1 + bits.LeadingZeros64(rem)
		if cur < lo {
			return nil, -1
		}
		s := &t.rob[cur]
		if !s.addrReady {
			return nil, cur
		}
		if s.va>>3 == va>>3 {
			return s, -1
		}
	}
	return nil, -1
}
