package machine

import (
	"os"
	"path/filepath"
	"testing"
)

func writeCacheIndex(t *testing.T, root, name, level, size string) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "level"), []byte(level+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "size"), []byte(size+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestHostLLCBytesFromFixture(t *testing.T) {
	root := t.TempDir()
	writeCacheIndex(t, root, "index0", "1", "32K")
	writeCacheIndex(t, root, "index1", "1", "48K")
	writeCacheIndex(t, root, "index2", "2", "2048K")
	writeCacheIndex(t, root, "index3", "3", "20M")
	got, ok := hostLLCBytesFrom(filepath.Join(root, "index*"))
	if !ok || got != 20<<20 {
		t.Fatalf("hostLLCBytesFrom = %d, %v; want %d, true", got, ok, 20<<20)
	}
}

func TestHostLLCBytesFromMissing(t *testing.T) {
	if _, ok := hostLLCBytesFrom(filepath.Join(t.TempDir(), "index*")); ok {
		t.Fatal("expected detection failure on empty tree")
	}
}

func TestHostLLCBytesNeverZero(t *testing.T) {
	if HostLLCBytes() <= 0 {
		t.Fatalf("HostLLCBytes = %d; want > 0", HostLLCBytes())
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"32K", 32 << 10, true},
		{"2048K", 2 << 20, true},
		{"8M", 8 << 20, true},
		{"1G", 1 << 30, true},
		{"123", 123, true},
		{"", 0, false},
		{"xK", 0, false},
		{"-4K", 0, false},
	}
	for _, c := range cases {
		got, ok := parseCacheSize(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseCacheSize(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestHostLevelBytesFromFixture(t *testing.T) {
	root := t.TempDir()
	writeCacheIndex(t, root, "index0", "1", "32K")
	writeCacheIndex(t, root, "index1", "1", "48K")
	writeCacheIndex(t, root, "index2", "2", "2048K")
	writeCacheIndex(t, root, "index3", "3", "20M")
	got, ok := hostLevelBytesFrom(filepath.Join(root, "index*"), 2)
	if !ok || got != 2<<20 {
		t.Fatalf("hostLevelBytesFrom(level=2) = %d, %v; want %d, true", got, ok, 2<<20)
	}
	if _, ok := hostLevelBytesFrom(filepath.Join(root, "index*"), 4); ok {
		t.Fatal("expected no level-4 cache in fixture")
	}
	if _, ok := hostLevelBytesFrom(filepath.Join(t.TempDir(), "index*"), 2); ok {
		t.Fatal("expected detection failure on empty tree")
	}
}

func TestPreferredBufferElems(t *testing.T) {
	b := PreferredBufferElems()
	if b < 1<<12 || b > 1<<16 {
		t.Fatalf("PreferredBufferElems = %d; want within [%d, %d]", b, 1<<12, 1<<16)
	}
	if b&(b-1) != 0 {
		t.Fatalf("PreferredBufferElems = %d; want a power of two", b)
	}
	// The derivation contract: both halves fit in a quarter of L2 (unless
	// the lower clamp is in effect on a tiny-L2 host).
	if 2*b*16 > HostL2Bytes()/4 && b > 1<<12 {
		t.Fatalf("staging footprint 2·%d·16 = %d exceeds L2/4 = %d", b, 2*b*16, HostL2Bytes()/4)
	}
}

func TestPreferredMu(t *testing.T) {
	cases := []struct{ m, want int }{
		{256, 8}, {64, 8}, {8, 8},
		{4, 4}, {12, 4}, {20, 4},
		{2, 2}, {6, 2},
		{1, 1}, {3, 1}, {7, 1},
	}
	for _, c := range cases {
		if got := PreferredMu(c.m); got != c.want {
			t.Errorf("PreferredMu(%d) = %d; want %d", c.m, got, c.want)
		}
	}
}

// Shapes arrive from the network, so the element count must be checked,
// not multiplied blindly: a product that wraps (2^32·2^32 = 0 mod 2^64)
// would otherwise pass as an empty transform, and one that fits an int
// can still ask for more memory than the host has.
func TestAdmitElems(t *testing.T) {
	const mem = 8 << 30
	for _, c := range []struct {
		dims []int
		mem  int
		want int
		ok   bool
	}{
		{[]int{8}, 0, 8, true},
		{[]int{4, 8, 16}, mem, 512, true},
		{[]int{maxElems}, 0, maxElems, true},
		{[]int{maxElems + 1}, 0, 0, false},
		{[]int{1 << 32, 1 << 32}, 0, 0, false},   // wraps to 0
		{[]int{1<<32 + 1, 1 << 32}, 0, 0, false}, // wraps to 2^32
		{[]int{1 << 30, 1 << 30}, 0, 0, false},   // fits an int, above the limit
		{[]int{1 << 20, 1 << 20, 1 << 20}, 0, 0, false},
		{[]int{1 << 22, 1 << 22, 1 << 22}, mem, 0, false}, // wraps to 0 mod 2^64
		{[]int{4, 0}, 0, 0, false},
		{[]int{-2, -4}, 0, 0, false},
		{[]int{mem / 16}, mem, mem / 16, true}, // exactly the host's memory
		{[]int{mem/16 + 1}, mem, 0, false},
		{[]int{4096, 4096, 4096}, mem, 0, false}, // 1 TiB: fits an int, not the host
		{[]int{4096, 4096, 4096}, 0, 1 << 36, true},
	} {
		n, err := admitElems(c.dims, c.mem)
		if (err == nil) != c.ok || n != c.want {
			t.Errorf("admitElems(%v, %d) = %d, %v; want %d, ok=%v", c.dims, c.mem, n, err, c.want, c.ok)
		}
	}
	// The host check itself must admit a small transform.
	if n, err := AdmitElems([]int{16, 16, 16}); err != nil || n != 4096 {
		t.Fatalf("AdmitElems(16³) = %d, %v", n, err)
	}
}

func TestMemTotalBytesFrom(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meminfo")
	if err := os.WriteFile(path, []byte("MemTotal:        8211568 kB\nMemFree:          123 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := memTotalBytesFrom(path); !ok || got != 8211568*1024 {
		t.Fatalf("memTotalBytesFrom = %d, %v; want %d, true", got, ok, 8211568*1024)
	}
	if err := os.WriteFile(path, []byte("MemFree: 123 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := memTotalBytesFrom(path); ok {
		t.Fatal("parsed a MemTotal that is not there")
	}
	if _, ok := memTotalBytesFrom(filepath.Join(dir, "missing")); ok {
		t.Fatal("parsed a missing file")
	}
}
