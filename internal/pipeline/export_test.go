package pipeline

import "fmt"

// SetReferenceScheduler switches c between the event-driven scheduler
// (default) and the original O(ROB)-scan reference scheduler. Test-only:
// the differential tests pin both schedulers to identical statistics.
func (c *CPU) SetReferenceScheduler(on bool) { c.refSched = on }

// CheckSchedInvariants reports the first violated event-scheduler invariant
// on c's running threads, meant to be checked between Steps:
//
//   - no completion-wheel bucket or overflow entry is due (completeAt <=
//     cycle): the drain reached every completion on its own cycle, which is
//     what lets drainWheel test one bucket and wheelPeek take the nearest;
//   - every live entry's branch mask is a subset of the thread's active
//     tags: clearTag reached every entry carrying a released tag.
func (c *CPU) CheckSchedInvariants() error {
	for i := range c.ths {
		t := &c.ths[i]
		if t.halted {
			continue
		}
		for b, head := range t.bucketHead {
			for idx := head; idx != wheelNone; idx = t.wheelNext[idx] {
				if at := t.rob[idx].completeAt; at <= c.cycle {
					return fmt.Errorf("cycle %d thread %d: slot %d in wheel bucket %d was due at cycle %d",
						c.cycle, t.id, idx, b, at)
				}
			}
		}
		for _, idx := range t.overflow {
			if at := t.rob[idx].completeAt; at <= c.cycle {
				return fmt.Errorf("cycle %d thread %d: overflow slot %d was due at cycle %d",
					c.cycle, t.id, idx, at)
			}
		}
		for j := 0; j < t.count; j++ {
			idx := t.slot(j)
			if stale := t.rob[idx].mask &^ t.activeTags; stale != 0 {
				return fmt.Errorf("cycle %d thread %d: slot %d carries released branch tags %#x",
					c.cycle, t.id, idx, stale)
			}
		}
	}
	return nil
}
