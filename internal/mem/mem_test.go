package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	m := New()
	m.Map(0x1000, PermUser|PermKernel)
	if f := m.Write(0x1008, 42, false); f != FaultNone {
		t.Fatalf("write fault: %v", f)
	}
	v, f := m.Read(0x1008, false)
	if f != FaultNone || v != 42 {
		t.Fatalf("read = %d, %v", v, f)
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := New()
	if _, f := m.Read(0xdead000, false); f != FaultUnmapped {
		t.Errorf("read fault = %v, want unmapped", f)
	}
	if f := m.Write(0xdead000, 1, false); f != FaultUnmapped {
		t.Errorf("write fault = %v, want unmapped", f)
	}
}

func TestKernelPermission(t *testing.T) {
	m := New()
	m.Map(0x2000, PermKernel)
	if f := m.Write(0x2000, 7, true); f != FaultNone {
		t.Fatalf("kernel write fault: %v", f)
	}
	// User read faults but — Meltdown semantics — the data is returned
	// when the page is mapped.
	v, f := m.Read(0x2000, false)
	if f != FaultPerm {
		t.Errorf("user read fault = %v, want perm", f)
	}
	if v != 7 {
		t.Errorf("faulting read value = %d, want 7 (forwarded)", v)
	}
	// Kernel-mode read is clean.
	if v, f := m.Read(0x2000, true); f != FaultNone || v != 7 {
		t.Errorf("kernel read = %d, %v", v, f)
	}
	// User write must not modify.
	if f := m.Write(0x2000, 9, false); f != FaultPerm {
		t.Errorf("user write fault = %v", f)
	}
	if v, _ := m.Read(0x2000, true); v != 7 {
		t.Error("faulting write modified memory")
	}
}

func TestRemapUpdatesPermissions(t *testing.T) {
	m := New()
	m.Map(0x3000, PermKernel)
	m.Write(0x3000, 5, true)
	m.Map(0x3000, PermUser|PermKernel)
	v, f := m.Read(0x3000, false)
	if f != FaultNone || v != 5 {
		t.Errorf("after remap: %d, %v (data must survive a permission change)", v, f)
	}
}

func TestWalkSteps(t *testing.T) {
	m := New()
	m.Map(0x5000, PermUser)
	tr := m.Walk(0x5123)
	if tr.Fault != FaultNone {
		t.Fatalf("walk fault: %v", tr.Fault)
	}
	if tr.VPage != 0x5000 {
		t.Errorf("VPage = %#x", tr.VPage)
	}
	// Both PTE reads must land in allocated physical frames.
	for i, s := range tr.Steps {
		if s.PA == 0 {
			t.Fatalf("step %d has zero PA", i)
		}
		if _, err := m.ReadPhys(s.PA); err != nil {
			t.Errorf("step %d PTE at %#x unreadable: %v", i, s.PA, err)
		}
	}
	// The first step must read the root table.
	if tr.Steps[0].PA < m.RootPA() || tr.Steps[0].PA >= m.RootPA()+entriesPerL*8 {
		t.Errorf("step 0 PA %#x not in root table at %#x", tr.Steps[0].PA, m.RootPA())
	}
}

func TestWalkUnmapped(t *testing.T) {
	m := New()
	tr := m.Walk(0x7000)
	if tr.Fault != FaultUnmapped {
		t.Errorf("walk of unmapped page: fault = %v", tr.Fault)
	}
}

func TestAdjacentPagesShareLeafPTELine(t *testing.T) {
	// The Meltdown PoC warms a kernel page's PTE line by touching the
	// neighbouring user page: their leaf PTEs must be 8 bytes apart.
	m := New()
	m.Map(0x10000, PermUser)
	m.Map(0x11000, PermKernel)
	a := m.Walk(0x10000)
	b := m.Walk(0x11000)
	if a.Steps[1].PA+8 != b.Steps[1].PA {
		t.Errorf("leaf PTEs not adjacent: %#x vs %#x", a.Steps[1].PA, b.Steps[1].PA)
	}
}

func TestPTEEncoding(t *testing.T) {
	p := MakePTE(0xABC000, PermUser|PermKernel)
	if !p.Valid() {
		t.Error("PTE not valid")
	}
	if p.Frame() != 0xABC000 {
		t.Errorf("frame = %#x", p.Frame())
	}
	if p.Perm() != PermUser|PermKernel {
		t.Errorf("perm = %v", p.Perm())
	}
	if PTE(0).Valid() {
		t.Error("zero PTE must be invalid")
	}
}

func TestFaultString(t *testing.T) {
	if FaultNone.String() != "none" || FaultPerm.String() != "perm" || FaultUnmapped.String() != "unmapped" {
		t.Error("fault names wrong")
	}
}

func TestCheckAccess(t *testing.T) {
	tr := Translation{Perm: PermKernel}
	if CheckAccess(tr, false) != FaultPerm {
		t.Error("user access to kernel page should fault")
	}
	if CheckAccess(tr, true) != FaultNone {
		t.Error("kernel access to kernel page should pass")
	}
	tr.Fault = FaultUnmapped
	if CheckAccess(tr, true) != FaultUnmapped {
		t.Error("unmapped propagates")
	}
}

// TestFillPage: a loader fills a page with one copy, kernel pages
// included, and a page read through an image is copied before it is
// filled.
func TestFillPage(t *testing.T) {
	words := make([]int64, PageSize/8)
	words[0], words[0x108/8] = 1, 2
	m := New()
	m.Map(0x2000, PermUser|PermKernel)
	m.Map(0x9000, PermKernel)
	m.FillPage(0x2000, words)
	m.FillPage(0x9000, words[1:])
	if v, f := m.Read(0x2000, false); v != 1 || f != FaultNone {
		t.Errorf("user data: %d %v", v, f)
	}
	if v, f := m.Read(0x2108, false); v != 2 || f != FaultNone {
		t.Errorf("user data 2: %d %v", v, f)
	}
	if _, f := m.Read(0x9100, false); f != FaultPerm {
		t.Errorf("kernel data readable from user mode: %v", f)
	}
	if v, _ := m.Read(0x9100, true); v != 2 {
		t.Error("kernel data wrong")
	}

	img := m.Freeze()
	m.FillPage(0x2000, make([]int64, PageSize/8))
	if v, _ := m.Read(0x2108, false); v != 0 {
		t.Errorf("refilled page reads %d", v)
	}
	if v, _ := FromImage(img).Read(0x2108, false); v != 2 {
		t.Errorf("filling a page wrote through to its image: %d", v)
	}

	defer func() {
		if recover() == nil {
			t.Error("filling an unmapped page did not panic")
		}
	}()
	m.FillPage(0x5000, words)
}

func TestEnsureMapped(t *testing.T) {
	m := New()
	m.EnsureMapped(0x4000, PermUser|PermKernel)
	m.Write(0x4000, 11, false)
	// Second call must not reallocate (data preserved).
	m.EnsureMapped(0x4000, PermUser|PermKernel)
	if v, _ := m.Read(0x4000, false); v != 11 {
		t.Error("EnsureMapped reallocated an existing page")
	}
}

// Property: for any set of writes to mapped user pages, reads return the
// last value written per 8-byte word.
func TestReadWriteConsistencyProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		shadow := make(map[uint64]int64)
		for i := 0; i < 8; i++ {
			m.Map(uint64(i)*PageSize, PermUser|PermKernel)
		}
		for i := 0; i < int(nOps); i++ {
			addr := (uint64(rng.Intn(8*PageSize)) / 8) * 8
			if rng.Intn(2) == 0 {
				v := rng.Int63()
				if m.Write(addr, v, false) != FaultNone {
					return false
				}
				shadow[addr] = v
			} else {
				v, fault := m.Read(addr, false)
				if fault != FaultNone || v != shadow[addr] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: walking any mapped address yields a frame that round-trips
// physical reads and writes.
func TestWalkFrameProperty(t *testing.T) {
	f := func(pageIdx uint8, off uint16, v int64) bool {
		m := New()
		va := uint64(pageIdx) * PageSize
		m.Map(va, PermUser)
		tr := m.Walk(va + uint64(off)%PageSize)
		if tr.Fault != FaultNone {
			return false
		}
		pa := tr.Frame + (uint64(off)%PageSize)/8*8
		if err := m.WritePhys(pa, v); err != nil {
			return false
		}
		got, err := m.ReadPhys(pa)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
