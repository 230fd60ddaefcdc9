package machine

import "testing"

func TestPaperParameters(t *testing.T) {
	// §V: "8 threads, 8 MB L3 cache, 32/64/64 GB DRAM, bandwidth
	// 20/40/12 GB/s" for the single-socket machines.
	single := []struct {
		m    Machine
		dram int
		bw   float64
	}{
		{Haswell4770K, 32, 20},
		{KabyLake7700K, 64, 40},
		{FX8350, 64, 12},
	}
	for _, c := range single {
		if c.m.Threads() != 8 {
			t.Errorf("%s: threads = %d, want 8", c.m.Name, c.m.Threads())
		}
		if c.m.LLC().SizeBytes != 8<<20 {
			t.Errorf("%s: LLC = %d, want 8 MB", c.m.Name, c.m.LLC().SizeBytes)
		}
		if c.m.DRAMGB != c.dram || c.m.StreamGBs != c.bw {
			t.Errorf("%s: DRAM/BW = %d/%v, want %d/%v",
				c.m.Name, c.m.DRAMGB, c.m.StreamGBs, c.dram, c.bw)
		}
		if c.m.Sockets != 1 || c.m.LinkGBs != 0 {
			t.Errorf("%s: not single socket", c.m.Name)
		}
	}
	// §V: "16 threads, 20/16 MB L3 cache, 256/64 GB DRAM, bandwidth
	// 85/20 GB/s" for the dual-socket machines.
	dual := []struct {
		m    Machine
		llc  int
		dram int
		bw   float64
	}{
		{Haswell2667, 20 << 20, 256, 85},
		{Interlagos6276, 16 << 20, 64, 20},
	}
	for _, c := range dual {
		if c.m.Threads() != 16 {
			t.Errorf("%s: threads = %d, want 16", c.m.Name, c.m.Threads())
		}
		if c.m.LLC().SizeBytes != c.llc {
			t.Errorf("%s: LLC = %d, want %d", c.m.Name, c.m.LLC().SizeBytes, c.llc)
		}
		if c.m.DRAMGB != c.dram || c.m.StreamGBs != c.bw {
			t.Errorf("%s: DRAM/BW wrong", c.m.Name)
		}
		if c.m.Sockets != 2 || c.m.LinkGBs <= 0 {
			t.Errorf("%s: not dual socket with a link", c.m.Name)
		}
	}
	// Fig. 2: Intel pairs data and compute threads on one core's two
	// hyperthreads, AMD on two cores sharing an L2.
	for _, m := range All {
		want := SMTPaired
		if m.Vendor == "amd" {
			want = CorePaired
		}
		if m.Pairing != want {
			t.Errorf("%s: pairing %v, want %v", m.Name, m.Pairing, want)
		}
	}
	if SMTPaired.String() != "smt-paired" || CorePaired.String() != "core-paired" {
		t.Errorf("pairing names %q/%q", SMTPaired, CorePaired)
	}
}

func TestDerivedQuantities(t *testing.T) {
	m := KabyLake7700K
	if m.VectorDoubles() != 4 {
		t.Error("AVX should be 4 doubles")
	}
	if Interlagos6276.VectorDoubles() != 2 {
		t.Error("SSE should be 2 doubles")
	}
	if m.FlopsPerCycle() != 16 {
		t.Errorf("FlopsPerCycle = %v, want 16 (2 FMA pipes × 4 doubles)", m.FlopsPerCycle())
	}
	if got := m.PeakGflops(); got != 4.5*16*4 {
		t.Errorf("PeakGflops = %v, want 288", got)
	}
	// b = LLC/2 split over two halves: 8 MB/2/16 B/2 = 131072 complex.
	if got := m.DefaultBufferElems(); got != 131072 {
		t.Errorf("DefaultBufferElems = %d, want 131072", got)
	}
	if Haswell2667.SocketStreamGBs() != 42.5 {
		t.Errorf("per-socket stream = %v, want 42.5", Haswell2667.SocketStreamGBs())
	}
}

func TestCacheSets(t *testing.T) {
	l1 := KabyLake7700K.Caches[0]
	if got := l1.Sets(); got != 64 {
		t.Errorf("L1 sets = %d, want 64", got)
	}
	l3 := KabyLake7700K.LLC()
	if got := l3.Sets(); got != 8<<20/(16*64) {
		t.Errorf("L3 sets = %d", got)
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("Intel Kaby Lake 7700K")
	if err != nil || m.FreqGHz != 4.5 {
		t.Fatalf("ByName failed: %v %v", m, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("ByName accepted unknown machine")
	}
	if len(All) != 5 {
		t.Fatalf("All has %d machines, want 5", len(All))
	}
}

func TestLookup(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"Intel Kaby Lake 7700K", "Intel Kaby Lake 7700K"},
		{"7700k", "Intel Kaby Lake 7700K"},
		{"FX-8350", "AMD FX-8350"},
		{"interlagos", "AMD Opteron 6276 Interlagos (2S)"},
		{"2667", "Intel Haswell 2667v3 (2S)"},
	} {
		m, err := Lookup(tc.in)
		if err != nil {
			t.Errorf("Lookup(%q): %v", tc.in, err)
			continue
		}
		if m.Name != tc.want {
			t.Errorf("Lookup(%q) = %q, want %q", tc.in, m.Name, tc.want)
		}
	}
	if _, err := Lookup("haswell"); err == nil {
		t.Error("ambiguous Lookup(\"haswell\") succeeded")
	}
	if _, err := Lookup("sparc"); err == nil {
		t.Error("unknown Lookup(\"sparc\") succeeded")
	}
}
