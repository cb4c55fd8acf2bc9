package pipeline_test

import (
	"runtime"
	"testing"

	"safespec/internal/asm"
	"safespec/internal/mem"
	"safespec/internal/pipeline"
	"safespec/internal/workloads"
)

// TestBuildMemoryLayoutDeterministic: data pages outside every declared
// region are mapped by the image loader itself. Their frames, and so the
// page-table entries the page walker reads through the D-cache, must not
// depend on map iteration order.
func TestBuildMemoryLayoutDeterministic(t *testing.T) {
	b := asm.NewBuilder()
	var pages []uint64
	for i := uint64(0); i < 8; i++ {
		// Two pages in each of four 16 MiB L1 slots, none inside a region.
		va := 0x4000_0000 + (i%4)<<24 + (i/4)<<12
		pages = append(pages, va)
		b.Data(va+8, int64(i+1))
	}
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	walkAll := func(m *mem.Memory) []mem.Translation {
		out := make([]mem.Translation, len(pages))
		for i, va := range pages {
			out[i] = m.Walk(va)
			if out[i].Fault != mem.FaultNone {
				t.Fatalf("page %#x not mapped: %v", va, out[i].Fault)
			}
		}
		return out
	}
	want := walkAll(pipeline.BuildMemory(prog))
	for run := 1; run < 20; run++ {
		for i, tr := range walkAll(pipeline.BuildMemory(prog)) {
			if tr != want[i] {
				t.Fatalf("build %d maps %#x to frame %#x via PTE %#x, first build to %#x via %#x",
					run, pages[i], tr.Frame, tr.Steps[1].PA, want[i].Frame, want[i].Steps[1].PA)
			}
		}
	}
}

// TestImageBuildFootprint guards the cost of building the largest
// kernel's memory image: its frames alias the program's 4 MiB of data
// pages, so a build allocates page tables and frame headers, not a second
// copy of the data, and interns only the page tables, not the borrowed
// data pages (about 240 KiB in all).
func TestImageBuildFootprint(t *testing.T) {
	w, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	s := w.Spec
	s.Seed = 434343 // a seed no other test builds
	prog := s.Build()
	if len(prog.Pages) < 1000 {
		t.Fatalf("mcf has %d data pages, want its 4 MiB table", len(prog.Pages))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	img := pipeline.BuildMemory(prog).Freeze()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(img)
	const limit = 320 << 10
	if d := after.TotalAlloc - before.TotalAlloc; d > limit {
		t.Errorf("building mcf's image allocated %d KiB, want <= %d KiB", d>>10, limit>>10)
	}
}
