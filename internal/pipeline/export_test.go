package pipeline

import (
	"fmt"
	"reflect"

	"safespec/internal/bpred"
	"safespec/internal/mem"
	"safespec/internal/shadow"
)

// SetReferenceScheduler switches c between the event-driven scheduler
// (default) and the original O(ROB)-scan reference scheduler. Test-only:
// the differential tests pin both schedulers to identical statistics.
func (c *CPU) SetReferenceScheduler(on bool) { c.refSched = on }

// Committed returns the instructions retired so far, the count Run's loop
// condition tests (St.Committed holds it only once Run returns).
func (c *CPU) Committed() uint64 { return c.committed() }

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

// DiffFresh lists, up to 20 entries, where got — a CPU rebound by Reset —
// differs from want, a CPU freshly built for the same (cfg, prog). It
// compares every field reachable from the CPU (cache levels, TLBs,
// predictor tables, shadow structures, ROB, fetch ring, scheduler arrays,
// statistics) except those a Reset may legitimately leave different:
//
//   - the architectural memory: a reused memory keeps spare frames, and
//     its content is pinned by the image-digest and pooling tests;
//   - shadow generation counters, which only advance so that a handle from
//     before the Reset stays stale;
//   - return-address-stack slots at or above the stack top, never read;
//   - the thread's pool of recycled RAS snapshot buffers.
//
// Slices compare by length and elements, not capacity.
func DiffFresh(got, want *CPU) []string {
	d := &stateDiff{seen: map[[2]uintptr]bool{}}
	d.walk("cpu", reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem())
	return d.out
}

// stateDiff walks two values of one type in step, recording differences.
type stateDiff struct {
	seen map[[2]uintptr]bool
	out  []string
}

var (
	memType    = reflect.TypeFor[mem.Memory]()
	shadowType = reflect.TypeFor[shadow.Structure]()
	bpredType  = reflect.TypeFor[bpred.Predictor]()
	threadType = reflect.TypeFor[thread]()
)

// skipField reports the fields DiffFresh leaves out (see there).
func skipField(t reflect.Type, name string) bool {
	switch t {
	case shadowType:
		return name == "gens" || name == "genCtr"
	case threadType:
		return name == "rasFree"
	}
	return false
}

func (d *stateDiff) add(path string, a, b any) {
	if len(d.out) < 20 {
		d.out = append(d.out, fmt.Sprintf("%s: reset %v, fresh %v", path, a, b))
	}
}

func (d *stateDiff) walk(path string, a, b reflect.Value) {
	if len(d.out) >= 20 {
		return
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.add(path, a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Kind() == reflect.Interface {
			d.walk(path, a.Elem(), b.Elem())
			return
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if a.Type().Elem() == memType || key[0] == key[1] || d.seen[key] {
			return
		}
		d.seen[key] = true
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		t := a.Type()
		for i := range t.NumField() {
			name := t.Field(i).Name
			if skipField(t, name) {
				continue
			}
			fa, fb := a.Field(i), b.Field(i)
			if t == bpredType && name == "ras" {
				top := int(a.FieldByName("rasTop").Int())
				fa, fb = fa.Slice(0, top), fb.Slice(0, top)
			}
			d.walk(path+"."+name, fa, fb)
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			d.add(path+" length", a.Len(), b.Len())
			return
		}
		for i := range a.Len() {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.add(path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.add(path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.add(path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			d.add(path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			d.add(path, a.String(), b.String())
		}
	default:
		d.add(path, "unsupported kind "+a.Kind().String(), "-")
	}
}
