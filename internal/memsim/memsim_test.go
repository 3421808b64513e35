package memsim

import (
	"fmt"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := OptaneMachine()
	if err := good.Validate(); err != nil {
		t.Fatalf("OptaneMachine invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*MachineConfig)
	}{
		{"zero sockets", func(c *MachineConfig) { c.Sockets = 0 }},
		{"zero cores", func(c *MachineConfig) { c.CoresPerSocket = 0 }},
		{"zero smt", func(c *MachineConfig) { c.ThreadsPerCore = 0 }},
		{"zero dram", func(c *MachineConfig) { c.DRAMPerSocket = 0 }},
		{"memory mode without pmm", func(c *MachineConfig) { c.Mode = MemoryMode; c.PMMPerSocket = 0 }},
		{"bad page size", func(c *MachineConfig) { c.PageSize = 12345 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := OptaneMachine()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("expected validation error")
			}
		})
	}
}

func TestPredefinedMachines(t *testing.T) {
	for _, cfg := range []MachineConfig{OptaneMachine(), DRAMMachine(), AppDirectMachine(), EntropyMachine(), StampedeHost()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if got := OptaneMachine().MaxThreads(); got != 96 {
		t.Errorf("Optane machine threads = %d, want 96", got)
	}
	if got := EntropyMachine().MaxThreads(); got != 224 {
		t.Errorf("Entropy threads = %d, want 224", got)
	}
}

func TestModeString(t *testing.T) {
	if DRAMOnly.String() != "dram" || MemoryMode.String() != "memory-mode" || AppDirect.String() != "app-direct" {
		t.Error("mode strings wrong")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode should still print")
	}
}

func TestThreadSocketCompactPinning(t *testing.T) {
	cfg := OptaneMachine()
	// 24 cores per socket: threads 0-23 on socket 0, 24-47 on socket 1,
	// SMT siblings 48-71 back on socket 0.
	for _, tc := range []struct{ id, want int }{
		{0, 0}, {23, 0}, {24, 1}, {47, 1}, {48, 0}, {72, 1}, {95, 1},
	} {
		if got := threadSocket(&cfg, tc.id); got != tc.want {
			t.Errorf("threadSocket(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

func TestAllocRejectsBadShapes(t *testing.T) {
	m := NewMachine(OptaneMachine())
	if _, err := m.Alloc("bad", -1, 8, AllocOpts{}); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := m.Alloc("bad", 10, 0, AllocOpts{}); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := m.Alloc("bad", 10, 8, AllocOpts{PageSize: 999}); err == nil {
		t.Error("bad page size accepted")
	}
}

func TestAppDirectPlacementRequiresMode(t *testing.T) {
	m := NewMachine(OptaneMachine()) // memory mode
	if _, err := m.Alloc("ad", 10, 8, AllocOpts{AppDirect: true}); err == nil {
		t.Error("app-direct alloc accepted in memory mode")
	}
	m2 := NewMachine(AppDirectMachine())
	if _, err := m2.Alloc("ad", 10, 8, AllocOpts{AppDirect: true}); err != nil {
		t.Errorf("app-direct alloc rejected in app-direct mode: %v", err)
	}
}

func TestInterleavedPlacementSplitsFootprint(t *testing.T) {
	m := NewMachine(OptaneMachine())
	a := m.MustAlloc("x", 1<<20, 8, AllocOpts{Policy: Interleaved})
	if f0, f1 := m.FootprintOnSocket(0), m.FootprintOnSocket(1); f0 != f1 {
		t.Errorf("interleaved footprint uneven: %d vs %d", f0, f1)
	}
	if got := a.fracOnSocket(0); got != 0.5 {
		t.Errorf("fracOnSocket = %v, want 0.5", got)
	}
	m.Free(a)
	if f0 := m.FootprintOnSocket(0); f0 != 0 {
		t.Errorf("footprint not released: %d", f0)
	}
}

func TestLocalPlacementSpills(t *testing.T) {
	// On the DRAM machine each socket holds 192 (scaled) GB; a 320 GB
	// local allocation must spill to socket 1 (Figure 4a discussion).
	m := NewMachine(DRAMMachine())
	a := m.MustAlloc("big", ScaledBytes(320)/8, 8, AllocOpts{Policy: Local})
	if m.FootprintOnSocket(1) == 0 {
		t.Fatal("320GB local allocation did not spill to socket 1 on DRAM machine")
	}
	f0 := a.fracOnSocket(0)
	if f0 < 0.55 || f0 > 0.65 {
		t.Errorf("socket-0 fraction = %v, want ~0.6 (192/320)", f0)
	}

	// On the Optane machine (3 TB per socket) the same allocation stays
	// entirely on socket 0.
	mo := NewMachine(OptaneMachine())
	b := mo.MustAlloc("big", ScaledBytes(320)/8, 8, AllocOpts{Policy: Local})
	if got := b.fracOnSocket(0); got != 1 {
		t.Errorf("Optane local fracOnSocket(0) = %v, want 1", got)
	}
	if mo.FootprintOnSocket(1) != 0 {
		t.Error("Optane local allocation spilled unexpectedly")
	}
}

// TestFreeReleasesFootprint: Free returns exactly what placement reserved,
// including a Local allocation that spills across sockets and one that
// overcommits every socket.
func TestFreeReleasesFootprint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   MachineConfig
		bytes int64
		opts  AllocOpts
	}{
		{"local spill", DRAMMachine(), 15000, AllocOpts{Policy: Local, PageSize: PageSmall}},
		{"local overcommit", DRAMMachine(), 30000, AllocOpts{Policy: Local, PageSize: PageSmall}},
		{"local app-direct spill", AppDirectMachine(), 15000, AllocOpts{Policy: Local, PageSize: PageSmall, AppDirect: true}},
		{"interleaved", DRAMMachine(), 15000, AllocOpts{Policy: Interleaved, PageSize: PageSmall}},
		{"blocked", DRAMMachine(), 48 * 320, AllocOpts{Policy: Blocked, BlockThreads: 48, PageSize: PageSmall}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.DRAMPerSocket, tc.cfg.PMMPerSocket = 10000, 10000
			m := NewMachine(tc.cfg)
			a := m.MustAlloc("a", tc.bytes, 1, tc.opts)
			var placed int64
			for s := 0; s < tc.cfg.Sockets; s++ {
				placed += m.volatileBytes[s] + m.adBytes[s]
			}
			if placed != tc.bytes {
				t.Fatalf("placed %d bytes, want %d", placed, tc.bytes)
			}
			m.Free(a)
			for s := 0; s < tc.cfg.Sockets; s++ {
				if v, ad := m.volatileBytes[s], m.adBytes[s]; v != 0 || ad != 0 {
					t.Errorf("socket %d after Free: volatile %d, app-direct %d, want 0", s, v, ad)
				}
			}
		})
	}
}

func TestBlockedPlacementFollowsThreads(t *testing.T) {
	m := NewMachine(OptaneMachine())
	// 24 threads all sit on socket 0, so blocked placement puts all
	// pages there (the pathological case in Figure 4b).
	a := m.MustAlloc("blk", 1<<20, 8, AllocOpts{Policy: Blocked, BlockThreads: 24})
	if got := a.fracOnSocket(0); got != 1 {
		t.Errorf("blocked 24-thread fracOnSocket(0) = %v, want 1", got)
	}
	m.Free(a)
	// 48 threads straddle both sockets evenly.
	b := m.MustAlloc("blk48", 1<<20, 8, AllocOpts{Policy: Blocked, BlockThreads: 48})
	if got := b.fracOnSocket(0); got != 0.5 {
		t.Errorf("blocked 48-thread fracOnSocket(0) = %v, want 0.5", got)
	}
}

func TestNearMemHitProbShape(t *testing.T) {
	m := NewMachine(OptaneMachine())
	// Empty socket: perfect.
	if p := m.nearMemHitProb(0); p != 1 {
		t.Errorf("empty socket hit prob = %v", p)
	}
	// One third of near-memory: nearly perfect (kron30 behaves like DRAM).
	a := m.MustAlloc("third", ScaledBytes(64)/8, 8, AllocOpts{Policy: Local})
	if p := m.nearMemHitProb(0); p < 0.98 {
		t.Errorf("1/3-footprint hit prob = %v, want > 0.98", p)
	}
	m.Free(a)
	// ~95% of near-memory: ~26% conflict misses (clueweb12).
	b := m.MustAlloc("near", ScaledBytes(182)/8, 8, AllocOpts{Policy: Local})
	if p := m.nearMemHitProb(0); p < 0.65 || p > 0.80 {
		t.Errorf("95%%-footprint hit prob = %v, want ~0.72", p)
	}
	m.Free(b)
	// Double the near-memory: hit rate around 0.65*C/F = 0.32.
	c := m.MustAlloc("spill", ScaledBytes(384)/8, 8, AllocOpts{Policy: Local})
	if p := m.nearMemHitProb(0); p < 0.25 || p > 0.40 {
		t.Errorf("2x-footprint hit prob = %v, want ~0.33", p)
	}
	m.Free(c)
}

func TestParallelElapsedIsMaxOfThreads(t *testing.T) {
	m := NewMachine(DRAMMachine())
	stats := m.Parallel(4, func(th *Thread) {
		th.Advance(float64(th.ID+1) * 1000)
	})
	want := 4000 + m.cost.ForkJoinCost
	if stats.ElapsedNs != want {
		t.Errorf("elapsed = %v, want %v", stats.ElapsedNs, want)
	}
	if m.WallNs() != stats.ElapsedNs {
		t.Errorf("wall clock %v != region %v", m.WallNs(), stats.ElapsedNs)
	}
}

func TestParallelClampsThreads(t *testing.T) {
	m := NewMachine(DRAMMachine())
	stats := m.Parallel(10000, func(th *Thread) {})
	if stats.Threads != 96 {
		t.Errorf("threads = %d, want clamp to 96", stats.Threads)
	}
	stats = m.Parallel(-3, func(th *Thread) {})
	if stats.Threads != 1 {
		t.Errorf("threads = %d, want 1", stats.Threads)
	}
}

func TestSequentialRunsOneThread(t *testing.T) {
	m := NewMachine(DRAMMachine())
	ran := 0
	m.Sequential(func(th *Thread) {
		ran++
		if th.ID != 0 || th.Socket != 0 {
			t.Errorf("sequential thread id=%d socket=%d", th.ID, th.Socket)
		}
	})
	if ran != 1 {
		t.Errorf("sequential ran %d threads", ran)
	}
}

func TestCountersAccumulate(t *testing.T) {
	m := NewMachine(DRAMMachine())
	a := m.MustAlloc("arr", 1<<16, 8, AllocOpts{Policy: Interleaved})
	m.Parallel(2, func(th *Thread) {
		for i := int64(0); i < 100; i++ {
			a.Read(th, (i*7919)%a.Len())
			a.Write(th, (i*104729)%a.Len())
		}
	})
	c := m.Counters()
	if c.Reads != 200 || c.Writes != 200 {
		t.Errorf("reads=%d writes=%d, want 200 each", c.Reads, c.Writes)
	}
	if c.UserNs <= 0 {
		t.Error("no user time charged")
	}
	m.ResetClock()
	if m.WallNs() != 0 || m.Counters().Reads != 0 {
		t.Error("ResetClock did not reset")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		m := NewMachine(OptaneMachine())
		a := m.MustAlloc("arr", 1<<18, 8, AllocOpts{Policy: Interleaved})
		a.Warm() // fault attribution races across threads; warm for exactness
		m.Parallel(8, func(th *Thread) {
			for i := int64(0); i < 5000; i++ {
				a.Read(th, (int64(th.ID)*100003+i*7919)%a.Len())
			}
		})
		return m.WallNs()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: wall %v != %v (nondeterministic simulation)", i, got, first)
		}
	}
}

func TestRemoteAccessesCostMore(t *testing.T) {
	m := NewMachine(DRAMMachine())
	a := m.MustAlloc("arr", 1<<22, 8, AllocOpts{Policy: Local, PreferredSocket: 0, PageSize: PageGiant})
	local := m.ParallelPinned(0, 1, func(th *Thread) {
		for i := int64(0); i < 20000; i++ {
			a.Read(th, (i*7919)%a.Len())
		}
	})
	remote := m.ParallelPinned(1, 1, func(th *Thread) {
		for i := int64(0); i < 20000; i++ {
			a.Read(th, (i*7919)%a.Len())
		}
	})
	if remote.ElapsedNs <= local.ElapsedNs {
		t.Errorf("remote (%v) should cost more than local (%v)", remote.ElapsedNs, local.ElapsedNs)
	}
	if remote.Counters.RemoteAccesses == 0 || local.Counters.LocalAccesses == 0 {
		t.Error("local/remote counters not recorded")
	}
}

func TestFirstTouchFaultsOnce(t *testing.T) {
	m := NewMachine(DRAMMachine())
	a := m.MustAlloc("arr", 1<<20, 8, AllocOpts{Policy: Local, PageSize: PageSmall})
	s1 := m.Sequential(func(th *Thread) { a.ReadRange(th, 0, a.Len()) })
	s2 := m.Sequential(func(th *Thread) { a.ReadRange(th, 0, a.Len()) })
	if s1.Counters.MinorFaults == 0 {
		t.Fatal("first sweep produced no minor faults")
	}
	if s2.Counters.MinorFaults != 0 {
		t.Errorf("second sweep faulted %d times", s2.Counters.MinorFaults)
	}
}

func TestHugePagesReduceTLBMisses(t *testing.T) {
	run := func(pageSize int64) Counters {
		m := NewMachine(NewMachineWithMode(MemoryMode, pageSize, false))
		a := m.MustAlloc("arr", ScaledBytes(64)/8, 8, AllocOpts{Policy: Interleaved, PageSize: pageSize})
		stats := m.Parallel(4, func(th *Thread) {
			r := uint64(th.ID + 1)
			for i := 0; i < 50000; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				a.Read(th, int64(r%uint64(a.Len())))
			}
		})
		return stats.Counters
	}
	small := run(PageSmall)
	huge := run(PageHuge)
	if small.TLBMisses <= huge.TLBMisses {
		t.Errorf("4KB TLB misses (%d) should exceed 2MB (%d)", small.TLBMisses, huge.TLBMisses)
	}
	if small.PageWalkNs <= huge.PageWalkNs {
		t.Errorf("4KB walk time (%v) should exceed 2MB (%v)", small.PageWalkNs, huge.PageWalkNs)
	}
}

// NewMachineWithMode is a test helper building an Optane-geometry config.
func NewMachineWithMode(mode Mode, pageSize int64, migration bool) MachineConfig {
	cfg := OptaneMachine()
	cfg.Mode = mode
	cfg.PageSize = pageSize
	cfg.NUMAMigration = migration
	return cfg
}

func TestMigrationAddsKernelTime(t *testing.T) {
	run := func(migration bool) Counters {
		cfg := NewMachineWithMode(MemoryMode, PageSmall, migration)
		m := NewMachine(cfg)
		a := m.MustAlloc("arr", ScaledBytes(32)/8, 8, AllocOpts{Policy: Interleaved, PageSize: PageSmall})
		stats := m.Parallel(8, func(th *Thread) {
			r := uint64(th.ID + 1)
			for i := 0; i < 30000; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				a.Read(th, int64(r%uint64(a.Len())))
			}
		})
		return stats.Counters
	}
	off := run(false)
	on := run(true)
	if on.Migrations == 0 {
		t.Fatal("migration on produced no migrations")
	}
	if off.Migrations != 0 {
		t.Fatalf("migration off produced %d migrations", off.Migrations)
	}
	if on.KernelNs <= off.KernelNs {
		t.Errorf("migration kernel time %v should exceed off %v", on.KernelNs, off.KernelNs)
	}
	if on.Shootdowns == 0 {
		t.Error("migrations produced no shootdowns")
	}
}

func TestMigrationScalesWithPageSize(t *testing.T) {
	run := func(pageSize int64) uint64 {
		cfg := NewMachineWithMode(MemoryMode, pageSize, true)
		m := NewMachine(cfg)
		a := m.MustAlloc("arr", ScaledBytes(32)/8, 8, AllocOpts{Policy: Interleaved, PageSize: pageSize})
		stats := m.Parallel(8, func(th *Thread) {
			r := uint64(th.ID + 1)
			for i := 0; i < 60000; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				a.Read(th, int64(r%uint64(a.Len())))
			}
		})
		return stats.Counters.Migrations
	}
	small := run(PageSmall)
	huge := run(PageHuge)
	if small < huge*20 {
		t.Errorf("small-page migrations (%d) should dwarf huge-page migrations (%d)", small, huge)
	}
}

func TestCountersHelpers(t *testing.T) {
	c := Counters{TLBHits: 75, TLBMisses: 25, NearMemHits: 50, NearMemMisses: 50, LocalAccesses: 20, RemoteAccesses: 80}
	if got := c.TLBMissRate(); got != 0.25 {
		t.Errorf("TLBMissRate = %v", got)
	}
	if got := c.NearMemHitRate(); got != 0.5 {
		t.Errorf("NearMemHitRate = %v", got)
	}
	if got := c.LocalFraction(); got != 0.2 {
		t.Errorf("LocalFraction = %v", got)
	}
	var zero Counters
	if zero.TLBMissRate() != 0 || zero.NearMemHitRate() != 0 || zero.LocalFraction() != 0 {
		t.Error("zero counters should report zero rates")
	}
	var sum Counters
	sum.Add(c)
	sum.Add(c)
	if sum.TLBHits != 150 || sum.RemoteAccesses != 160 {
		t.Error("Add did not accumulate")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{Local: "local", Interleaved: "interleaved", Blocked: "blocked"} {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Policy(42).String() != fmt.Sprintf("Policy(%d)", 42) {
		t.Error("unknown policy string")
	}
}
