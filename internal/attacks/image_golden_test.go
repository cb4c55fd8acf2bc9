package attacks

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"safespec/internal/asm"
	"safespec/internal/isa"
	"safespec/internal/mem"
	"safespec/internal/pipeline"
	"safespec/internal/sweep"
	"safespec/internal/workloads"
)

// goldenImages pins the physical memory every kernel and attack program
// loads into (set UPDATE_GOLDEN=1 to regenerate — only ever from a commit
// whose images are known-good). TestBuildMemoryLayoutDeterministic shows
// that a layout does not vary between builds; this golden shows that it
// does not change between commits: frame contents, page-table entries and
// frame addresses all feed the page walker and the caches, so any drift
// would move simulated results.
const goldenImages = "testdata/image_digests.txt"

// Bump-allocator geometry of mem.Memory: the root page table is the first
// region allocated, and every region occupies one stride of physical
// address space.
const (
	imagePhysBase   = 1 << 40
	imageRegionSize = 4096 * 8
)

// imageDigest hashes what BuildMemory(prog) leaves behind: the root table
// address, then every allocated region in bump order (its length and
// words), which also fixes the bump pointer.
func imageDigest(t *testing.T, prog *isa.Program) string {
	t.Helper()
	m := pipeline.BuildMemory(prog)
	if m.RootPA() != imagePhysBase {
		t.Fatalf("root page table at %#x, want %#x", m.RootPA(), imagePhysBase)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(m.RootPA())
	slots := 0
	for ; ; slots++ {
		base := uint64(imagePhysBase + slots*imageRegionSize)
		var words []uint64
		for off := uint64(0); off < imageRegionSize; off += 8 {
			v, err := m.ReadPhys(base + off)
			if errors.Is(err, mem.ErrUnmapped) {
				break
			}
			words = append(words, uint64(v))
		}
		if len(words) == 0 {
			break
		}
		put(uint64(len(words)))
		for _, w := range words {
			put(w)
		}
	}
	put(uint64(imagePhysBase + slots*imageRegionSize)) // the bump pointer
	return fmt.Sprintf("%d %s", slots, hex.EncodeToString(h.Sum(nil)[:16]))
}

// imageRows digests every program the evaluation and the leak matrix
// load: the Quick kernels, the Full kernels at three generator seeds, each
// attack at two secrets and each TSA bit program at the same secrets, then
// one program whose pages the loader maps itself.
func imageRows(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	row := func(name string, prog *isa.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "%s %s\n", name, imageDigest(t, prog))
	}
	for _, name := range sweep.Quick().Benchmarks {
		p, err := workloads.Program(name, 0, 1)
		row("quick/"+name, p, err)
	}
	for _, w := range workloads.All() {
		for _, seed := range []int64{0, 1, 7} {
			s := w.Spec
			if seed != 0 {
				s.Seed = seed
			}
			row(fmt.Sprintf("full/%s/seed=%d", w.Name, seed), s.Build(), nil)
		}
	}
	secrets := []int64{2, 11}
	for _, a := range All() {
		for _, secret := range secrets {
			p, err := a.Build(secret)
			row(fmt.Sprintf("attack/%s/secret=%d", a.Name, secret), p, err)
		}
	}
	for _, secret := range secrets {
		for bit := 0; bit < 4; bit++ {
			p, err := buildTSABit(tsaKey{secret, bit})
			row(fmt.Sprintf("tsa/secret=%d/bit=%d", secret, bit), p, err)
		}
	}
	// Data pages no region covers, written out of VA order, and kernel
	// pages outside and inside a user region: the loader maps these itself,
	// so this row pins its frame-allocation order.
	b := asm.NewBuilder()
	b.Region(0x4000_0000, 4096, false)
	for _, va := range []uint64{0x4300_1000, 0x4100_0000, 0x4300_0000, 0x4200_2000} {
		b.Data(va+8, int64(va))
	}
	b.KernelData(0x4180_0000, 1)
	b.KernelData(0x4000_0010, 2)
	b.KernelData(0x4080_0008, 3)
	b.Halt()
	p, err := b.Build()
	row("loader/unmapped-pages", p, err)
	return sb.String()
}

// TestImageDigestGolden fails on any program whose loaded memory differs
// from the pinned one.
func TestImageDigestGolden(t *testing.T) {
	got := imageRows(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenImages), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenImages, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenImages)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotRows := strings.Split(strings.TrimSpace(got), "\n")
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d image rows, golden has %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("image changed:\n got  %s\n want %s", gotRows[i], wantRows[i])
		}
	}
}
